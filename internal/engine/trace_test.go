package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// TestTraceDeterminismConcurrent extends the workers-1≡8 contract to
// the trace: the deterministic span fields — structure, names, rows
// in/out, captured by obs.Trace.Fingerprint — must be identical for
// every worker count, morsel size and runtime, because spans are
// recorded at operator barriers by the driver goroutine only. Timing
// and annotations (morsel counts, hash-table deltas) legitimately
// differ and are masked by the fingerprint.
func TestTraceDeterminismConcurrent(t *testing.T) {
	configs := []struct {
		label string
		opts  engine.ExecOptions
	}{
		{"row", engine.RowOracle}, // first: the reference fingerprint
		{"workers=1/batch", engine.ExecOptions{Workers: 1}},
		{"workers=8/batch", engine.ExecOptions{Workers: 8, MorselSize: 2}},
	}

	// TPC-H shapes at execution scale plus random fuzz-sized queries.
	type caseT struct {
		label string
		run   func(opts engine.ExecOptions) string
	}
	var cases []caseT
	for _, name := range []string{"Ex", "Q3", "Q5", "Q10"} {
		name := name
		q := tpch.Queries()[name]
		data := tpch.GenerateTables(rand.New(rand.NewSource(7)), q, tpch.ExecutionScaleAt(name, 0.2))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, caseT{name, func(opts engine.ExecOptions) string {
			tr := obs.NewTrace()
			opts.Trace = tr
			if _, _, err := engine.ExecProfiledOpts(q, res.Plan, data, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return tr.Fingerprint()
		}})
	}
	rng := rand.New(rand.NewSource(414))
	for trial := 0; trial < 6; trial++ {
		trial := trial
		q := randquery.Generate(rng, randquery.Params{Relations: 3 + trial%4})
		data := engine.RandomData(rng, q, 14).Tables()
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgDPhyp})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("rand-%d", trial)
		cases = append(cases, caseT{label, func(opts engine.ExecOptions) string {
			tr := obs.NewTrace()
			opts.Trace = tr
			if _, _, err := engine.ExecProfiledOpts(q, res.Plan, data, opts); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return tr.Fingerprint()
		}})
	}

	for _, c := range cases {
		want := ""
		for i, cfg := range configs {
			got := c.run(cfg.opts)
			if got == "" {
				t.Fatalf("%s/%s: empty trace fingerprint", c.label, cfg.label)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: trace fingerprint differs at %s:\nwant:\n%s\ngot:\n%s",
					c.label, cfg.label, want, got)
			}
		}
	}
}

// TestTraceFeedbackSpans pins the span tree of a Reoptimize run: one
// "feedback" span per round, optimizer spans (with dp-level children on
// multi-relation queries) and operator spans nested under them, and the
// converged round annotated as not re-executed.
func TestTraceFeedbackSpans(t *testing.T) {
	q := tpch.Queries()["Q5"]
	data := tpch.GenerateTables(rand.New(rand.NewSource(7)), q, tpch.ExecutionScaleAt("Q5", 0.2))
	tr := obs.NewTrace()
	res, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
		Opt:  core.Options{Algorithm: core.AlgEAPrune, Stats: nil},
		Exec: engine.ExecOptions{Workers: 1, Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, optimizes, ops, converged := 0, 0, 0, false
	for _, sp := range tr.Spans() {
		switch sp.Cat {
		case "feedback":
			rounds++
			for _, kv := range sp.Args {
				if kv.Key == "converged" {
					converged = true
				}
			}
		case "optimize":
			optimizes++
		case "op":
			ops++
		}
	}
	if rounds != len(res.Rounds) {
		t.Errorf("feedback spans %d != rounds %d", rounds, len(res.Rounds))
	}
	if optimizes != len(res.Rounds) {
		t.Errorf("optimize spans %d != rounds %d (every round optimizes, converged included)", optimizes, len(res.Rounds))
	}
	if ops == 0 {
		t.Error("no operator spans")
	}
	if res.Converged && !converged {
		t.Error("converged round not annotated")
	}
}

// TestExplainAnalyzeRender joins one traced execution with its plan: one
// annotated line per plan node, scans with measured rows, operators with
// est-vs-actual and q-error.
func TestExplainAnalyzeRender(t *testing.T) {
	q := tpch.Queries()["Q3"]
	data := tpch.GenerateTables(rand.New(rand.NewSource(7)), q, tpch.ExecutionScaleAt("Q3", 0.2))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	_, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	text := engine.ExplainAnalyze(q, res.Plan, tr)
	lines := strings.Count(strings.TrimRight(text, "\n"), "\n") + 1
	nodes := 0
	var countNodes func(p *plan.Plan)
	countNodes = func(p *plan.Plan) {
		if p == nil {
			return
		}
		nodes++
		countNodes(p.Left)
		countNodes(p.Right)
	}
	countNodes(res.Plan)
	if lines != nodes {
		t.Errorf("rendered %d lines for %d plan nodes:\n%s", lines, nodes, text)
	}
	if !strings.Contains(text, "scan ") || !strings.Contains(text, "act=") || !strings.Contains(text, "q=") {
		t.Errorf("missing annotations:\n%s", text)
	}
	// The final result rows appear as the root span's actuals.
	if !strings.Contains(text, fmt.Sprintf("act=%d", stats.ResultRows)) {
		t.Errorf("root actuals %d not rendered:\n%s", stats.ResultRows, text)
	}
}

// TestTraceSortArms pins the sort=… annotation: every operator span that
// performed a sort names the arm it took, and EXPLAIN ANALYZE prints it.
// On Q3 at factor 100 under the sort layer every int key is dense, so
// every sort is a counting sort — at one worker and at two.
func TestTraceSortArms(t *testing.T) {
	q := tpch.Queries()["Q3"]
	data := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt("Q3", 100))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort})
	if err != nil {
		t.Fatal(err)
	}
	if performed, _ := res.Plan.SortStats(); performed == 0 {
		t.Fatal("the sort plan performs no sort: nothing to annotate")
	}
	for _, workers := range []int{1, 2} {
		tr := obs.NewTrace()
		_, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: workers, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		annotated := 0
		for _, sp := range tr.Spans() {
			for _, kv := range sp.Args {
				if kv.Key != "sort" {
					continue
				}
				annotated++
				if kv.Value != "dense" {
					t.Errorf("workers=%d: span %q reports sort=%s, want dense", workers, sp.Name, kv.Value)
				}
			}
		}
		if h := stats.Hash; annotated == 0 || h.SortDense == 0 || h.SortRadix+h.SortCompare != 0 {
			t.Errorf("workers=%d: %d sort= annotations, sort arms dense/radix/compare = %d/%d/%d",
				workers, annotated, h.SortDense, h.SortRadix, h.SortCompare)
		}
		if text := engine.ExplainAnalyze(q, res.Plan, tr); strings.Count(text, "sort=dense") != annotated {
			t.Errorf("workers=%d: EXPLAIN ANALYZE does not print the %d sort= annotations:\n%s", workers, annotated, text)
		}
	}
}
