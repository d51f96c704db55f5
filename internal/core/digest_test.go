package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"eagg/internal/core"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/plan_digests.golden from this commit's plans")

const digestFile = "testdata/plan_digests.golden"

// digestCell is one (query, generator, physical mode) optimization whose
// outcome the golden file pins.
type digestCell struct {
	label string
	q     *query.Query
	opts  core.Options
}

func (c digestCell) name() string {
	return fmt.Sprintf("%s/%v/%v", c.label, c.opts.Algorithm, c.opts.Phys)
}

// digestCells lays out the pinned population: the 60 random queries of the
// benchmark's optimize_cold mix (same seed, same draw order) through the
// four generators it runs, the 20 smallest of them also through H1, H2 and
// Beam in the sort mode and through Beam in the hash mode, the paper's
// TPC-H queries through the same four on every physical mode and through
// Beam in the sort mode, the chain/star/wide cells, and 20 small queries
// through the complete search.
func digestCells() []digestCell {
	four := []core.Options{
		{Algorithm: core.AlgDPhyp},
		{Algorithm: core.AlgH1},
		{Algorithm: core.AlgH2, F: 1.03},
		{Algorithm: core.AlgEAPrune},
	}
	var cells []digestCell
	add := func(label string, q *query.Query, phys core.PhysMode, opts ...core.Options) {
		for _, o := range opts {
			o.Phys = phys
			cells = append(cells, digestCell{label: label, q: q, opts: o})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 6; n <= 16; n += 2 {
		for i := 0; i < 10; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			label := fmt.Sprintf("rand%d.%d", n, i)
			add(label, q, core.PhysModeHash, four...)
			if n <= 8 {
				add(label, q, core.PhysModeSort, core.Options{Algorithm: core.AlgH1},
					core.Options{Algorithm: core.AlgH2, F: 1.03}, core.Options{Algorithm: core.AlgBeam})
				add(label, q, core.PhysModeHash, core.Options{Algorithm: core.AlgBeam})
			}
		}
	}
	for _, name := range []string{"Ex", "Q3", "Q5", "Q10"} {
		for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
			add(name, tpch.Queries()[name], phys, four...)
		}
		add(name, tpch.Queries()[name], core.PhysModeSort, core.Options{Algorithm: core.AlgBeam})
	}
	shapes := []core.Options{{Algorithm: core.AlgH1}, {Algorithm: core.AlgEAPrune}, {Algorithm: core.AlgBeam}}
	add("chain12", randquery.Chain(12), core.PhysModeHash, shapes...)
	add("star12", randquery.Star(12), core.PhysModeHash, shapes...)
	add("chain64", randquery.Chain(64), core.PhysModeHash, core.Options{Algorithm: core.AlgH1})
	rng = rand.New(rand.NewSource(2))
	for n := 3; n <= 7; n++ {
		for i := 0; i < 4; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			add(fmt.Sprintf("small%d.%d", n, i), q, core.PhysModeHash, core.Options{Algorithm: core.AlgEAAll})
		}
	}
	return cells
}

// digest renders what the golden file records of one optimization: the
// bits of both costs, the two exact effort counters, and a hash of the
// rendered plan tree.
func digest(t *testing.T, c digestCell, workers int, wide bool) string {
	t.Helper()
	o := c.opts
	o.Workers, o.ForceWide = workers, wide
	res, err := core.Optimize(c.q, o)
	if err != nil {
		t.Fatalf("%s workers=%d wide=%v: %v", c.name(), workers, wide, err)
	}
	h := fnv.New64a()
	h.Write([]byte(res.Plan.String()))
	return fmt.Sprintf("cost=%016x phys=%016x built=%d table=%d plan=%016x",
		math.Float64bits(res.Plan.Cost), math.Float64bits(res.Plan.PhysCost),
		res.Stats.PlansBuilt, res.Stats.TablePlans, h.Sum64())
}

// TestPlanDigestsUnchanged pins every generator, physical mode, worker
// count and set representation to the plans of the commit that generated
// the golden file (the parent of the flat-frontier change): cost bits,
// plans built, plans retained and the rendered tree must all match. A
// change that means to alter retained sets regenerates the file with
// -update-digests and says so.
func TestPlanDigestsUnchanged(t *testing.T) {
	cells := digestCells()
	if *updateDigests {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.name(), digest(t, c, 1, false))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		want[name] = rest
	}
	if len(want) != len(cells) {
		t.Fatalf("golden file holds %d cells, the population has %d", len(want), len(cells))
	}
	configs := []struct {
		workers int
		wide    bool
	}{{1, false}, {2, false}, {8, false}, {2, true}}
	if core.RaceEnabled {
		// The race detector slows the heavy EA-Prune cells tenfold; one
		// parallel configuration keeps the lane's runtime bounded.
		configs = configs[1:2]
	}
	for _, c := range cells {
		for _, cfg := range configs {
			if got := digest(t, c, cfg.workers, cfg.wide); got != want[c.name()] {
				t.Errorf("%s workers=%d wide=%v:\n got %s\nwant %s", c.name(), cfg.workers, cfg.wide, got, want[c.name()])
			}
		}
	}
}
