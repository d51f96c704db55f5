// Package obs is the engine's observability spine: structured per-query
// traces (spans covering optimizer phases and executor operators) and a
// process-wide metrics registry (atomic counters, gauges and fixed-bucket
// histograms exportable as Prometheus text and expvar).
//
// Both halves are built so that *collection can never perturb results*:
//
//   - Traces are recorded by the single driver goroutine of a query — the
//     optimizer's level loop and the executor's operator barriers — so no
//     synchronization is needed and no operator's morsel fan-out ever
//     sees a trace. Deterministic span fields (structure, names, row
//     counts) are bit-identical for every worker count; wall-clock fields
//     are carried separately and excluded from Fingerprint, the rendering
//     the determinism tests compare.
//   - Metrics are updated through atomic operations only (histogram
//     observation is one atomic add per bucket plus a CAS loop on the
//     float sum); scrapes read the same atomics. There is no lock on any
//     hot path, and nothing in the registry feeds back into planning or
//     execution.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// KV is one deterministic-order span annotation (rendered into Chrome
// trace args and EXPLAIN ANALYZE lines; excluded from Fingerprint, since
// annotations may legitimately depend on the worker count — morsel
// counts, hash-table shapes — while the span structure must not).
type KV struct {
	Key   string
	Value string
}

// Span is one traced region. IDs index Trace.Spans; Parent is -1 for
// roots. RowsIn/RowsOut are -1 when not applicable. StartNS/DurNS are
// monotonic nanoseconds relative to the trace origin — timing, excluded
// from Fingerprint along with Args.
type Span struct {
	ID      int
	Parent  int
	Name    string
	Cat     string
	RowsIn  int64
	RowsOut int64
	StartNS int64
	DurNS   int64
	Args    []KV
}

// Trace is a per-query span collection. It is deliberately not
// synchronized: Begin/End/Annotate must be called from one goroutine at
// a time (the query's driver goroutine — the operator barriers and the
// optimizer's level loop already are single-goroutine points). Emit
// exists for attaching derived spans (e.g. DP levels reconstructed from
// core.Stats) after the fact.
type Trace struct {
	origin time.Time
	spans  []Span
	stack  []int
}

// NewTrace starts an empty trace; the wall-clock origin anchors every
// span's relative timestamps.
func NewTrace() *Trace {
	return &Trace{origin: time.Now()}
}

func (t *Trace) now() int64 { return time.Since(t.origin).Nanoseconds() }

// Begin opens a span nested under the currently open span (LIFO) and
// returns its id.
func (t *Trace) Begin(name, cat string) int {
	id := len(t.spans)
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Cat: cat,
		RowsIn: -1, RowsOut: -1, StartNS: t.now(), DurNS: -1,
	})
	t.stack = append(t.stack, id)
	return id
}

// End closes the span (which must be the innermost open one).
func (t *Trace) End(id int) {
	sp := &t.spans[id]
	sp.DurNS = t.now() - sp.StartNS
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// SetRows records a span's deterministic row counts (part of
// Fingerprint; -1 = not applicable).
func (t *Trace) SetRows(id int, in, out int64) {
	t.spans[id].RowsIn, t.spans[id].RowsOut = in, out
}

// Annotate attaches one key-value annotation to a span.
func (t *Trace) Annotate(id int, key, value string) {
	t.spans[id].Args = append(t.spans[id].Args, KV{key, value})
}

// Annotatef is Annotate with a formatted value.
func (t *Trace) Annotatef(id int, key, format string, args ...any) {
	t.Annotate(id, key, fmt.Sprintf(format, args...))
}

// Emit attaches a complete span under an explicit parent (use -1 for a
// root) with caller-supplied timing — the hook for spans derived from
// already-collected statistics, like per-level DP timings. It returns
// the new span's id and does not touch the open-span stack.
func (t *Trace) Emit(parent int, name, cat string, startNS, durNS, rowsIn, rowsOut int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Cat: cat,
		RowsIn: rowsIn, RowsOut: rowsOut, StartNS: startNS, DurNS: durNS,
	})
	return id
}

// Spans returns the recorded spans in creation (pre-)order. The slice is
// the trace's own backing array; treat it as read-only.
func (t *Trace) Spans() []Span { return t.spans }

// Len returns the number of recorded spans.
func (t *Trace) Len() int { return len(t.spans) }

// Dur returns a span's duration (negative while still open).
func (s Span) Dur() time.Duration { return time.Duration(s.DurNS) }

// Fingerprint renders the deterministic half of the trace — span
// structure (parent links), names, categories and row counts — one line
// per span, with every timing field and annotation masked. Two
// executions of the same plan must produce equal fingerprints whatever
// the worker count, pool, batch size or runtime; the trace-determinism
// suite compares exactly this rendering.
func (t *Trace) Fingerprint() string {
	var b strings.Builder
	for _, sp := range t.spans {
		fmt.Fprintf(&b, "%d %d %s %s %d %d\n", sp.ID, sp.Parent, sp.Cat, sp.Name, sp.RowsIn, sp.RowsOut)
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the trace in Chrome trace-event JSON (an object
// with a traceEvents array of complete events), the format Perfetto and
// chrome://tracing open directly. Span nesting is expressed by
// enclosure: every span's interval lies inside its parent's, which the
// Begin/End discipline guarantees, so the viewer reconstructs the tree
// without explicit ids.
func (t *Trace) WriteChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		dur := sp.DurNS
		if dur < 0 {
			dur = 0 // still-open span: render as instant
		}
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS:  float64(sp.StartNS) / 1e3,
			Dur: float64(dur) / 1e3,
			PID: 1, TID: 1,
		}
		if sp.RowsIn >= 0 || sp.RowsOut >= 0 || len(sp.Args) > 0 {
			ev.Args = map[string]any{}
			if sp.RowsIn >= 0 {
				ev.Args["rows_in"] = sp.RowsIn
			}
			if sp.RowsOut >= 0 {
				ev.Args["rows_out"] = sp.RowsOut
			}
			for _, kv := range sp.Args {
				ev.Args[kv.Key] = kv.Value
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
