package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eagg/internal/core"
	"eagg/internal/query"
)

func TestLoadSpecStar(t *testing.T) {
	q, err := loadSpec(filepath.Join("testdata", "star.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 2 || q.Root.Kind != query.KindLeftOuter {
		t.Fatalf("unexpected query shape: %d relations, root %v", len(q.Relations), q.Root.Kind)
	}
	if !q.HasGrouping || len(q.Aggregates) != 3 {
		t.Fatal("grouping not loaded")
	}
	// The spec represents an eager-aggregation win; the optimizer must
	// find it (grouping below the left outerjoin — Eqv. 11 territory).
	lazy, err := core.Optimize(q, core.Options{Algorithm: core.AlgDPhyp})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	if eager.Plan.Cost >= lazy.Plan.Cost {
		t.Errorf("eager %.6g should beat lazy %.6g", eager.Plan.Cost, lazy.Plan.Cost)
	}
	if eager.Plan.CountGroupings() == 0 {
		t.Errorf("expected a pushed grouping:\n%v", eager.Plan.StringWithQuery(q))
	}
}

func TestLoadSpecErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// want, when set, is a text the error must contain: the name the
	// spec got wrong.
	cases := []struct {
		name, content, want string
	}{
		{"badjson.json", `{"relations": [`, ""},
		{"unknownop.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"y","distinct":1}]}],
			"tree":{"op":"wat","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["x"],"right":["y"],"selectivity":0.5}}}`, ""},
		{"unknownrel.json", `{"relations":[],"tree":{"scan":"ghost"}}`, ""},
		{"nopred.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"y","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"}}}`, ""},
		{"badagg.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"y","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["x"],"right":["y"],"selectivity":0.5}},
			"aggregates":[{"out":"z","fn":"median","arg":"x"}]}`, ""},
		{"unknownpredattr.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"a.x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"b.z","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["a.x"],"right":["b.y"],"selectivity":0.5}}}`, `"b.y"`},
		{"unknownkeyattr.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"a.x","distinct":1}],"keys":[["a.q"]]},
			{"name":"b","card":1,"attrs":[{"name":"b.y","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["a.x"],"right":["b.y"],"selectivity":0.5}}}`, `"a.q"`},
		{"unknowngroupattr.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"a.x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"b.y","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["a.x"],"right":["b.y"],"selectivity":0.5}},
			"groupBy":["a.w"],"aggregates":[{"out":"cnt","fn":"count(*)"}]}`, `"a.w"`},
		{"dupattr.json", `{"relations":[{"name":"a","card":1,"attrs":[{"name":"x","distinct":1}]},
			{"name":"b","card":1,"attrs":[{"name":"x","distinct":1}]}],
			"tree":{"op":"join","left":{"scan":"a"},"right":{"scan":"b"},
			"pred":{"left":["x"],"right":["x"],"selectivity":0.5}}}`, `"x"`},
	}
	for _, c := range cases {
		p := write(c.name, c.content)
		_, err := loadSpec(p)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
	if _, err := loadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must error")
	}
}
