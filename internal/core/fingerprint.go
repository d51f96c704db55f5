// The query fingerprint: a canonical byte string identifying everything
// that shapes which plan Optimize chooses — the plan-relevant optimizer
// options plus the complete optimizer input (relations, statistics,
// keys, declared orders, the initial tree, predicates, grouping and
// aggregates). Two (query, options) pairs with equal fingerprints are
// guaranteed the same chosen plan when optimized under the same stats
// snapshot, which is exactly the property the service layer's plan
// cache needs: its key is (Fingerprint, stats epoch).
//
// The encoding is self-delimiting — every name is length-prefixed, every
// list count-prefixed, every number a varint or eight fixed bytes — so
// equal fingerprints mean equal inputs whatever bytes the names contain.
// It is an opaque key, not a rendering: nothing may parse or print it.
// It is built without fmt, by appends into a caller-supplied buffer,
// because the service pays for it on every request, hit or miss.
package core

import (
	"encoding/binary"
	"math"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/query"
)

// Fingerprint returns the canonical signature of a (query, options)
// pair. Options that cannot influence the chosen plan are deliberately
// excluded:
//
//   - Workers: the DP driver's plans are bit-identical for every worker
//     count (the PR 1 contract), so plans may be
//     shared across worker settings.
//   - Stats: the cardinality source is external state; the service layer
//     accounts for it separately through the overlay epoch. Callers that
//     cache must pair the fingerprint with a stats identity of their own.
//
// Everything else is normalized the way Optimize resolves it (BeamWidth
// defaulting, F only mattering to H2), so option spellings that resolve
// to the same search also share a fingerprint. The result is an opaque
// map key (binary, not printable); compare it, never parse it.
func Fingerprint(q *query.Query, opts Options) string {
	// The stack array spares the append growth steps on ordinary queries;
	// the string conversion is then the one allocation.
	var buf [1024]byte
	return string(AppendFingerprint(buf[:0], q, opts))
}

// AppendFingerprint appends the fingerprint of (q, opts) to dst and
// returns the extended buffer. Into a buffer with enough capacity it
// allocates nothing, which is how the service keys its plan cache.
func AppendFingerprint(dst []byte, q *query.Query, opts Options) []byte {
	// Options half.
	f := 0.0
	if opts.Algorithm == AlgH2 {
		f = opts.F
	}
	bw := 0
	if opts.Algorithm == AlgBeam {
		bw = opts.BeamWidth
		if bw <= 0 {
			bw = 4
		}
	}
	dst = appendInt(dst, int(opts.Algorithm))
	dst = appendFloat(dst, f)
	dst = appendInt(dst, bw)
	dst = appendBool(dst, opts.FDReduceGroups)
	dst = appendInt(dst, int(opts.Phys))
	// PairBudget is plan-relevant: it decides where the greedy fallback
	// takes over.
	dst = appendInt(dst, opts.PairBudget)

	// Relations with their statistics, keys and declared orders.
	dst = appendInt(dst, len(q.Relations))
	for i := range q.Relations {
		r := &q.Relations[i]
		dst = appendName(dst, r.Name)
		dst = appendFloat(dst, r.Card)
		dst = appendSet(dst, r.Attrs)
		dst = appendInt(dst, len(r.Keys))
		for _, k := range r.Keys {
			dst = appendSet(dst, k)
		}
		dst = appendInts(dst, r.Ordered)
	}
	// Attributes: name, owner, distinct count.
	dst = appendInt(dst, len(q.AttrNames))
	for a, name := range q.AttrNames {
		dst = appendName(dst, name)
		dst = appendInt(dst, q.AttrRel[a])
		dst = appendFloat(dst, q.Distinct[a])
	}
	// The initial operator tree with predicates and groupjoin vectors.
	dst = appendNode(dst, q.Root)
	// Grouping and the aggregation vector.
	dst = appendSet(dst, q.GroupBy)
	dst = appendBool(dst, q.HasGrouping)
	return appendAggs(dst, q.Aggregates)
}

// Node tags of the initial tree's pre-order encoding.
const (
	fpNil byte = iota
	fpScan
	fpOp
)

// appendNode encodes one initial-tree node. Predicates are encoded by
// content (paired attribute ids and selectivity), not identity, so two
// independently built but identical queries fingerprint equal.
func appendNode(dst []byte, n *query.OpNode) []byte {
	if n == nil {
		return append(dst, fpNil)
	}
	if n.Kind == query.KindScan {
		return appendInt(append(dst, fpScan), n.Rel)
	}
	dst = appendInt(append(dst, fpOp), int(n.Kind))
	dst = appendBool(dst, n.Pred != nil)
	if p := n.Pred; p != nil {
		dst = appendInts(dst, p.Left)
		dst = appendInts(dst, p.Right)
		dst = appendFloat(dst, p.Selectivity)
	}
	dst = appendAggs(dst, n.GroupJoinAggs)
	dst = appendNode(dst, n.Left)
	return appendNode(dst, n.Right)
}

func appendAggs(dst []byte, v aggfn.Vector) []byte {
	dst = appendInt(dst, len(v))
	for i := range v {
		a := &v[i]
		dst = appendName(dst, a.Out)
		dst = appendInt(dst, int(a.Kind))
		dst = appendName(dst, a.Arg)
		dst = appendName(dst, a.Arg2)
		dst = appendName(dst, a.Weight)
	}
	return dst
}

// appendInt writes a signed varint: one byte for the small ids and
// counts that make up nearly all of a query, and still injective on
// whatever an unvalidated query holds.
func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

func appendInts(dst []byte, vs []int) []byte {
	dst = appendInt(dst, len(vs))
	for _, v := range vs {
		dst = appendInt(dst, v)
	}
	return dst
}

// appendFloat writes the value's bits: exact, fixed width, no formatting.
func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendName(dst []byte, s string) []byte {
	return append(appendInt(dst, len(s)), s...)
}

// appendSet writes a VSet word by word. Its packed form is canonical
// (trailing zero words trimmed), so the word count is too.
func appendSet(dst []byte, s bitset.VSet) []byte {
	nw := s.NumWords()
	dst = appendInt(dst, nw)
	for w := 0; w < nw; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, s.Word(w))
	}
	return dst
}
