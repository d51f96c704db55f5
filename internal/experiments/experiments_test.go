package experiments

import (
	"strings"
	"testing"
)

// TestTable1ExactPaperValues: the Fig. 11 walk-through must reproduce the
// paper's Table 1 numbers exactly — this is data-level, not estimate-level.
func TestTable1ExactPaperValues(t *testing.T) {
	got := Table1()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"Cout(e1,2)", got.CoutE12, 4},
		{"Cout(e0,1,2)", got.CoutE012, 8},
		{"Cout(Γ(e0,1,2))", got.CoutGroupLazy, 10},
		{"Cout(e'1)", got.CoutE1g, 3},
		{"Cout(e'1,2)", got.CoutE12g, 5},
		{"Cout(e'0,1,2)", got.CoutE012g, 7},
		{"Cout(Γ(e'0,1,2))", got.CoutGroupEager, 9},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if !strings.Contains(got.Format(), "7 vs 10") {
		t.Error("Format must mention the projection-eliminated comparison")
	}
}

// TestFig15Shape: the DPhyp/EA-Prune cost ratio is ≥1 everywhere and grows
// with the relation count (allowing sampling noise between adjacent
// sizes). This is the paper's "gain" claim.
func TestFig15Shape(t *testing.T) {
	cfg := Config{Queries: 8, MaxNPrune: 8, Seed: 7}
	fig := Fig15(cfg)
	if len(fig.Points) == 0 {
		t.Fatal("empty figure")
	}
	first := fig.Points[0].Values["DPhyp/EA-Prune"]
	last := fig.Points[len(fig.Points)-1].Values["DPhyp/EA-Prune"]
	for _, p := range fig.Points {
		v := p.Values["DPhyp/EA-Prune"]
		if v < 1-1e-9 {
			t.Errorf("n=%d: ratio %.4g below 1 — DPhyp beat the optimum?!", p.N, v)
		}
		if p.Values["max outlier"] < v {
			t.Errorf("n=%d: max outlier below the mean", p.N)
		}
	}
	if last < first {
		t.Errorf("gain should grow with relations: n=%d → %.3g, n=%d → %.3g",
			fig.Points[0].N, first, fig.Points[len(fig.Points)-1].N, last)
	}
	if last < 1.2 {
		t.Errorf("gain at n=%d only %.3g — eager aggregation should pay off clearly", fig.Points[len(fig.Points)-1].N, last)
	}
}

// TestFig17Shape: heuristics sit between 1.0 (optimal) and the DPhyp
// ratio; H2 must not be worse than ~2× optimal on average at these sizes.
func TestFig17Shape(t *testing.T) {
	cfg := Config{Queries: 8, MaxNPrune: 7, Seed: 11}
	fig := Fig17(cfg)
	for _, p := range fig.Points {
		for name, v := range p.Values {
			if v < 1-1e-9 {
				t.Errorf("n=%d %s: relative cost %.4g below 1", p.N, name, v)
			}
			if v > 3 {
				t.Errorf("n=%d %s: relative cost %.4g implausibly high", p.N, name, v)
			}
		}
	}
}

// TestFig16And18Run: the timing figures must produce complete, positive
// series (values are machine-dependent; only structure is asserted).
func TestFig16And18Run(t *testing.T) {
	cfg := Config{Queries: 3, MaxN: 6, MaxNPrune: 5, MaxNExhaustive: 4, Seed: 3}
	f16 := Fig16(cfg)
	for _, p := range f16.Points {
		if p.Values["DPhyp"] <= 0 || p.Values["H1"] <= 0 {
			t.Errorf("n=%d: missing fast-algorithm timings", p.N)
		}
		if p.N <= cfg.MaxNExhaustive && p.Values["EA-All"] <= 0 {
			t.Errorf("n=%d: missing EA-All timing", p.N)
		}
		if p.N > cfg.MaxNExhaustive {
			if _, ok := p.Values["EA-All"]; ok {
				t.Errorf("n=%d: EA-All should stop at %d", p.N, cfg.MaxNExhaustive)
			}
		}
	}
	f18 := Fig18(cfg)
	for _, p := range f18.Points {
		if p.Values["H2/H1"] <= 0 {
			t.Errorf("n=%d: missing H2/H1 ratio", p.N)
		}
	}
	if !strings.Contains(f16.Format(), "Figure 16") {
		t.Error("Format broken")
	}
}

// TestTable2Shape mirrors the TPC-H expectations of Sec. 5.4.
func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	if byName["Ex"].RelCost["EA/DPhyp"] > 0.05 {
		t.Errorf("Ex gains should be dramatic, got %.4g", byName["Ex"].RelCost["EA/DPhyp"])
	}
	if byName["Q5"].RelCost["EA/DPhyp"] < byName["Q10"].RelCost["EA/DPhyp"] {
		t.Errorf("Q5 should benefit least: Q5=%.3g Q10=%.3g",
			byName["Q5"].RelCost["EA/DPhyp"], byName["Q10"].RelCost["EA/DPhyp"])
	}
	for _, r := range rows {
		if r.RelCost["EA/DPhyp"] > 1+1e-9 {
			t.Errorf("%s: EA worse than DPhyp (%.4g)", r.Query, r.RelCost["EA/DPhyp"])
		}
		if r.RelCost["H2/DPhyp"] < r.RelCost["EA/DPhyp"]-1e-9 {
			t.Errorf("%s: H2 below the optimum", r.Query)
		}
	}
	out := FormatTable2(rows)
	for _, want := range []string{"Ex", "Q3", "Q5", "Q10", "Rel. Cost EA/DPhyp"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q", want)
		}
	}
}

// TestFeedbackEval smokes the exec -feedback experiment: every loop
// converges with final plan-level q-error 1 (the fixed point), every
// final result matches the canonical evaluation, and at small scale
// factors feedback demonstrably changes at least one chosen plan with a
// ≥10x plan-level q-error reduction on it.
func TestFeedbackEval(t *testing.T) {
	rep := FeedbackEval(Config{}, 1, nil)
	if !rep.AllMatch() {
		t.Fatalf("re-optimized plans must reproduce the canonical results:\n%s", rep.Format())
	}
	if len(rep.Rows) != 8 { // 4 queries × {lazy, eager}
		t.Fatalf("expected 8 rows, got %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if !row.Converged {
			t.Errorf("%s/%s: did not converge in %d rounds", row.Query, row.Plan, row.Rounds)
		}
		if row.QErrAfter > 1+1e-9 {
			t.Errorf("%s/%s: final q-error %g > 1", row.Query, row.Plan, row.QErrAfter)
		}
	}
	if !rep.AnyPlanChanged() {
		t.Fatalf("at sf 1 feedback should change at least one plan:\n%s", rep.Format())
	}
	for _, row := range rep.Rows {
		if row.PlanChanged && row.QErrBefore >= 10*row.QErrAfter {
			return // the acceptance property: plan changed and q-error fell ≥10x
		}
	}
	t.Fatalf("no changed plan with a ≥10x q-error reduction:\n%s", rep.Format())
}

// TestExecEvalWorstOp checks the per-operator drill-down of the exec
// report: every non-trivial row carries a labeled worst-operator
// q-error ≥ 1.
func TestExecEvalWorstOp(t *testing.T) {
	rep := ExecEval(Config{}, 1, []string{"Q3"})
	for _, row := range rep.Rows {
		if row.QErrorTrivial {
			continue
		}
		if row.WorstOpQError < 1 || row.WorstOp == "" {
			t.Errorf("%s/%s: missing worst-op profile: %g %q", row.Query, row.Plan, row.WorstOpQError, row.WorstOp)
		}
	}
}
