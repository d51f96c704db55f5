package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// fpQuery builds a deterministic 5-relation query; equal seeds yield
// structurally identical (but independently allocated) queries.
func fpQuery(seed int64, rels int) *query.Query {
	rng := rand.New(rand.NewSource(seed))
	return randquery.Generate(rng, randquery.Params{Relations: rels})
}

// TestFingerprintInvariants pins what the plan-cache key must and must
// not depend on: Workers and Stats never change the fingerprint (plans
// are shareable across both), while every plan-shaping input — algorithm,
// physical mode, statistics, selectivities — changes it.
func TestFingerprintInvariants(t *testing.T) {
	q := fpQuery(7, 5)
	base := Fingerprint(q, Options{Algorithm: AlgEAPrune})

	// Workers and Stats are excluded by design.
	if got := Fingerprint(q, Options{Algorithm: AlgEAPrune, Workers: 8}); got != base {
		t.Error("Workers changed the fingerprint")
	}
	ov := cost.NewFeedbackOverlay()
	if got := Fingerprint(q, Options{Algorithm: AlgEAPrune, Stats: ov}); got != base {
		t.Error("Stats changed the fingerprint")
	}
	// F is irrelevant outside H2, BeamWidth outside Beam.
	if got := Fingerprint(q, Options{Algorithm: AlgEAPrune, F: 1.05, BeamWidth: 7}); got != base {
		t.Error("F/BeamWidth changed a non-H2/non-Beam fingerprint")
	}
	// BeamWidth 0 and the resolved default 4 coincide for Beam.
	if Fingerprint(q, Options{Algorithm: AlgBeam}) != Fingerprint(q, Options{Algorithm: AlgBeam, BeamWidth: 4}) {
		t.Error("Beam default width not normalized")
	}

	// Plan-shaping differences must separate.
	diff := []Options{
		{Algorithm: AlgDPhyp},
		{Algorithm: AlgH2, F: 1.03},
		{Algorithm: AlgEAPrune, Phys: PhysModeSort},
		{Algorithm: AlgEAPrune, Phys: PhysModeAuto},
		{Algorithm: AlgEAPrune, FDReduceGroups: true},
		{Algorithm: AlgBeam, BeamWidth: 8},
	}
	seen := map[string]int{base: -1}
	for i, o := range diff {
		fp := Fingerprint(q, o)
		if j, dup := seen[fp]; dup {
			t.Errorf("options %d and %d collide: %+v", i, j, o)
		}
		seen[fp] = i
	}

	// Different queries must separate; an independently rebuilt but
	// identical query must agree (predicates fingerprint by content,
	// not pointer identity).
	if Fingerprint(fpQuery(8, 5), Options{Algorithm: AlgEAPrune}) == base {
		t.Error("two different random queries share a fingerprint")
	}
	if Fingerprint(fpQuery(7, 5), Options{Algorithm: AlgEAPrune}) != base {
		t.Error("two builds of the same query fingerprint differently")
	}
}

// TestFingerprintSeparatesRandomQueries runs the generator over a random
// workload: distinct query structures should (essentially always) get
// distinct fingerprints, and re-fingerprinting is stable.
func TestFingerprintSeparatesRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 2 + i%5})
		fp := Fingerprint(q, Options{Algorithm: AlgEAPrune})
		if fp != Fingerprint(q, Options{Algorithm: AlgEAPrune}) {
			t.Fatal("fingerprint not stable across calls")
		}
		seen[fp] = true
	}
	if len(seen) < 35 {
		t.Fatalf("only %d distinct fingerprints over 40 random queries", len(seen))
	}
}

// fingerprintRef is the fmt-based encoder AppendFingerprint replaced,
// kept as the differential reference: on names free of its separators it
// is injective, so the two must induce the same equivalence classes.
func fingerprintRef(q *query.Query, opts Options) string {
	var b strings.Builder
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
	fmt.Fprintf(&b, "alg=%d f=%g bw=%d fd=%t phys=%d wide=%t pb=%d;",
		opts.Algorithm, f, bw, opts.FDReduceGroups, opts.Phys, opts.ForceWide, opts.PairBudget)
	for i := range q.Relations {
		r := &q.Relations[i]
		fmt.Fprintf(&b, "R%d=%s c=%g a=%v k=", i, r.Name, r.Card, r.Attrs)
		for _, k := range r.Keys {
			fmt.Fprintf(&b, "%v,", k)
		}
		fmt.Fprintf(&b, " o=%v;", r.Ordered)
	}
	for a, name := range q.AttrNames {
		fmt.Fprintf(&b, "A%d=%s@%d d=%g;", a, name, q.AttrRel[a], q.Distinct[a])
	}
	b.WriteString("T=")
	fingerprintRefNode(&b, q.Root)
	fmt.Fprintf(&b, ";G=%v hg=%t F=", q.GroupBy, q.HasGrouping)
	for _, a := range q.Aggregates {
		fmt.Fprintf(&b, "%s:%d(%s|%s|%s),", a.Out, a.Kind, a.Arg, a.Arg2, a.Weight)
	}
	return b.String()
}

func fingerprintRefNode(b *strings.Builder, n *query.OpNode) {
	if n == nil {
		b.WriteString("·")
		return
	}
	if n.Kind == query.KindScan {
		fmt.Fprintf(b, "s%d", n.Rel)
		return
	}
	fmt.Fprintf(b, "(%d", n.Kind)
	if p := n.Pred; p != nil {
		fmt.Fprintf(b, "[%v=%v@%g]", p.Left, p.Right, p.Selectivity)
	}
	for _, a := range n.GroupJoinAggs {
		fmt.Fprintf(b, "{%s:%d(%s|%s|%s)}", a.Out, a.Kind, a.Arg, a.Arg2, a.Weight)
	}
	b.WriteString(" ")
	fingerprintRefNode(b, n.Left)
	b.WriteString(" ")
	fingerprintRefNode(b, n.Right)
	b.WriteString(")")
}

// fpCorpus rebuilds TestFingerprintSeparatesRandomQueries's corpus and
// applies mutate to every query.
func fpCorpus(mutate func(*query.Query)) []*query.Query {
	rng := rand.New(rand.NewSource(99))
	qs := make([]*query.Query, 40)
	for i := range qs {
		qs[i] = randquery.Generate(rng, randquery.Params{Relations: 2 + i%5})
		if mutate != nil {
			mutate(qs[i])
		}
	}
	return qs
}

// firstPred returns the first predicate of the tree in pre-order.
func firstPred(n *query.OpNode) *query.Predicate {
	if n == nil || n.Kind == query.KindScan {
		return nil
	}
	if n.Pred != nil {
		return n.Pred
	}
	if p := firstPred(n.Left); p != nil {
		return p
	}
	return firstPred(n.Right)
}

// TestFingerprintMatchesReference is the differential test against the
// old encoder: over the random corpus — as generated, rebuilt, and with
// one statistic nudged — crossed with every plan-relevant option, two
// inputs share a fingerprint exactly when they shared one before.
func TestFingerprintMatchesReference(t *testing.T) {
	var qs []*query.Query
	for _, mutate := range []func(*query.Query){
		nil,
		func(*query.Query) {}, // an independent rebuild: must coincide with the first
		func(q *query.Query) { q.Relations[0].Card++ },
		func(q *query.Query) { q.Distinct[len(q.Distinct)-1] += 0.5 },
		func(q *query.Query) { firstPred(q.Root).Selectivity /= 2 },
	} {
		qs = append(qs, fpCorpus(mutate)...)
	}
	var opts []Options
	for _, o := range []Options{
		{Algorithm: AlgDPhyp},
		{Algorithm: AlgH1},
		{Algorithm: AlgH2, F: 1.03},
		{Algorithm: AlgH2, F: 1.1},
		{Algorithm: AlgEAPrune},
		{Algorithm: AlgEAAll},
		{Algorithm: AlgBeam},
		{Algorithm: AlgBeam, BeamWidth: 4},
		{Algorithm: AlgBeam, BeamWidth: 7},
	} {
		for _, o.Phys = range []PhysMode{PhysModeHash, PhysModeSort, PhysModeAuto} {
			for _, o.FDReduceGroups = range []bool{false, true} {
				for _, o.ForceWide = range []bool{false, true} {
					for _, o.PairBudget = range []int{0, 1000} {
						opts = append(opts, o)
					}
				}
			}
		}
	}

	refOf, fpOf := map[string]string{}, map[string]string{}
	for qi, q := range qs {
		for _, o := range opts {
			ref, fp := fingerprintRef(q, o), Fingerprint(q, o)
			if prev, ok := fpOf[ref]; ok && prev != fp {
				t.Fatalf("query %d %+v: equal under the reference, split by Fingerprint", qi, o)
			}
			if prev, ok := refOf[fp]; ok && prev != ref {
				t.Fatalf("query %d %+v: distinct under the reference, merged by Fingerprint:\n%s\n%s", qi, o, prev, ref)
			}
			fpOf[ref], refOf[fp] = fp, ref
		}
	}
	// 3 distinct corpora of 4 (the rebuild coincides) and 8 distinct
	// searches of 9 (Beam 0 ≡ Beam 4): the classes are neither all
	// singletons nor collapsed.
	if want := 4 * 40 * 8 * 24; len(refOf) != want {
		t.Errorf("%d classes, want %d", len(refOf), want)
	}
}

// TestFingerprintSelfDelimiting pins that names cannot forge structure.
// Each pair is two different raw optimizer inputs that the old
// separator-based format rendered identically, the name of one spelling
// out the separators and fields of the other.
func TestFingerprintSelfDelimiting(t *testing.T) {
	base := func() *query.Query {
		return &query.Query{
			Relations: []query.Relation{{Name: "r", Card: 10, Attrs: bitset.NewV(0, 1)}},
			AttrNames: []string{"p", "q"},
			AttrRel:   []int{0, 0},
			Distinct:  []float64{2, 2},
			Root:      &query.OpNode{Kind: query.KindScan},
		}
	}
	pairs := []struct {
		name string
		x, y func(*query.Query)
	}{
		{"attribute",
			func(q *query.Query) {
				q.AttrNames, q.AttrRel, q.Distinct = []string{"p@0 d=2;A1=q"}, []int{0}, []float64{2}
			},
			func(*query.Query) {}},
		{"relation",
			func(q *query.Query) {
				q.Relations = []query.Relation{{Name: "a c=1 a={} k= o=[];R1=b", Card: 2}}
			},
			func(q *query.Query) {
				q.Relations = []query.Relation{{Name: "a", Card: 1}, {Name: "b", Card: 2}}
			}},
		{"aggregate",
			func(q *query.Query) {
				q.Aggregates = aggfn.Vector{{Out: "n:1(x||),m", Kind: aggfn.Count, Arg: "y"}}
			},
			func(q *query.Query) {
				q.Aggregates = aggfn.Vector{{Out: "n", Kind: aggfn.Count, Arg: "x"}, {Out: "m", Kind: aggfn.Count, Arg: "y"}}
			}},
	}
	o := Options{Algorithm: AlgEAPrune}
	for _, p := range pairs {
		x, y := base(), base()
		p.x(x)
		p.y(y)
		if fingerprintRef(x, o) != fingerprintRef(y, o) {
			t.Errorf("%s: the pair is not an ambiguity of the old format", p.name)
		}
		if Fingerprint(x, o) == Fingerprint(y, o) {
			t.Errorf("%s: two different inputs share a fingerprint", p.name)
		}
	}
}

// fpServeShapes draws the 4…8-relation random shapes the benchmark's
// serve_mixed_small workload requests.
func fpServeShapes(n int) []*query.Query {
	rng := rand.New(rand.NewSource(1))
	qs := make([]*query.Query, n)
	for i := range qs {
		qs[i] = randquery.Generate(rng, randquery.Params{Relations: 4 + i%5})
	}
	return qs
}

// TestFingerprintAllocs pins the allocation contract the service's hit
// path relies on: appending into a warmed buffer allocates nothing, and
// Fingerprint allocates its result string only.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	o := Options{Algorithm: AlgEAPrune}
	for i, q := range fpServeShapes(10) {
		buf := AppendFingerprint(nil, q, o)
		if n := testing.AllocsPerRun(100, func() { buf = AppendFingerprint(buf[:0], q, o) }); n != 0 {
			t.Errorf("shape %d: AppendFingerprint into a warmed buffer: %v allocs/run, want 0", i, n)
		}
		if n := testing.AllocsPerRun(100, func() { fpSink = Fingerprint(q, o) }); n != 1 {
			t.Errorf("shape %d (%d bytes): Fingerprint: %v allocs/run, want 1", i, len(buf), n)
		}
	}
}

var fpSink string

// BenchmarkFingerprint is the per-request cost of the plan-cache key on
// the shapes serve_mixed_small draws.
func BenchmarkFingerprint(b *testing.B) {
	qs := fpServeShapes(64)
	o := Options{Algorithm: AlgEAPrune}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		fpSink = Fingerprint(qs[i%len(qs)], o)
	}
}
