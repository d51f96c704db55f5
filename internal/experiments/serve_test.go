package experiments

import (
	"strings"
	"testing"
)

// TestServeEvalSmoke runs the serve experiment end to end on a small
// instance: every shape's responses must reproduce the canonical result
// under concurrency, the warm cache must serve all repeats (one miss
// per shape at the stable epoch), and the report must render.
func TestServeEvalSmoke(t *testing.T) {
	cfg := Config{Workers: 2}
	rep := ServeEval(cfg, 0.2, []string{"Ex", "Q3"}, 3, 6, false, nil)
	if !rep.AllMatch() {
		t.Fatalf("served results diverged from canonical:\n%s", rep.Format())
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows=%d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Requests != 6 {
			t.Errorf("%s served %d requests, want 6", row.Query, row.Requests)
		}
		// Without feedback the epoch never moves: exactly one miss per
		// shape, everything else hits.
		if row.CacheHits != row.Requests-1 {
			t.Errorf("%s: %d hits over %d requests, want %d", row.Query, row.CacheHits, row.Requests, row.Requests-1)
		}
	}
	if rep.Metrics.PlanCacheMiss != 2 {
		t.Errorf("engine misses=%d, want 2 (one per shape)", rep.Metrics.PlanCacheMiss)
	}
	out := rep.Format()
	for _, want := range []string{"Service throughput", "Q3", "qps", "engine: cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestServeEvalFeedback runs the serve loop with the shared overlay on:
// results still match, and the engine ends at a nonzero epoch with
// measured keys (TPC-H estimates are imperfect, so the first publishes
// must change something).
func TestServeEvalFeedback(t *testing.T) {
	cfg := Config{Workers: 2}
	rep := ServeEval(cfg, 0.2, []string{"Q3"}, 2, 5, true, nil)
	if !rep.AllMatch() {
		t.Fatalf("feedback serving diverged from canonical:\n%s", rep.Format())
	}
	if rep.Metrics.Epoch == 0 || rep.Metrics.FeedbackKeys == 0 {
		t.Fatalf("shared feedback never accumulated: %+v", rep.Metrics)
	}
}
