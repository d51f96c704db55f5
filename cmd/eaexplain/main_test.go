package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExplainFlagHygiene pins eaexplain's misuse conventions: flag
// combinations that cannot mean anything exit 2 with a pointed message,
// matching eabench's convention.
func TestExplainFlagHygiene(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no selection", []string{}, "need -demo or -spec"},
		{"unknown demo", []string{"-demo", "q99"}, "unknown demo"},
		{"negative pair budget", []string{"-demo", "q3", "-pair-budget", "-1"}, "-pair-budget must be"},
		{"pair budget on small demo", []string{"-demo", "q3", "-pair-budget", "1000"}, "-pair-budget requires"},
		{"sf without analyze", []string{"-demo", "q3", "-sf", "2"}, "-sf requires -analyze"},
		{"bad sf", []string{"-demo", "q3", "-analyze", "-sf", "0"}, "-sf must be > 0"},
		{"analyze with spec", []string{"-spec", "testdata/star.json", "-analyze"}, "-analyze needs a TPC-H demo"},
		{"analyze on large demo", []string{"-demo", "chain100", "-analyze"}, "-analyze needs a TPC-H demo"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%s: want exit 2, got %d (stderr: %s)", tc.name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.wantErr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errOut.String(), tc.wantErr)
		}
	}
}

// TestExplainDemo smokes the plain explain path through run(): all five
// generators print their trees, exit 0.
func TestExplainDemo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-demo", "ex"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	for _, want := range []string{"DPhyp (no eager aggregation)", "EA-Prune (optimal)", "csg-cmp-pairs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q\n%s", want, out.String())
		}
	}
}

// TestExplainAnalyzeQ5 is the acceptance path: one command prints the
// plan trees of both generators with per-operator est-vs-actual rows and
// time, before and after cardinality feedback, at the default sf 1.
func TestExplainAnalyzeQ5(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-demo", "q5", "-analyze"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"EXPLAIN ANALYZE: Q5",
		"=== lazy/DPhyp ===",
		"=== eager/EA-Prune ===",
		"before feedback (round 1",
		"est=", "act=", "q=", "time=", "rows=",
		"table=dense", // the batch runtime ran; TPC-H keys are dense int ranges
		"match ok",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output missing %q\n%s", want, text)
		}
	}
	// The feedback half: either a plan change produced an after-tree, or
	// the report explicitly says feedback confirmed the plan.
	if !strings.Contains(text, "after feedback (round") && !strings.Contains(text, "feedback confirmed the plan") {
		t.Errorf("analyze output missing the after-feedback section\n%s", text)
	}
}
