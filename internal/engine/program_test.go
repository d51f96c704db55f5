package engine_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// programRun is one traced execution's deterministic output.
type programRun struct {
	tab   *algebra.Table
	stats *engine.ExecStats
	trace string // obs.Trace.Fingerprint
	err   error
}

func runProgram(prog *engine.Program, data engine.TableData, opts engine.ExecOptions) programRun {
	tr := obs.NewTrace()
	opts.Trace = tr
	tab, stats, err := prog.Run(data, opts)
	return programRun{tab, stats, tr.Fingerprint(), err}
}

// TestProgramConcurrentRuns pins that a Program is data-independent and
// immutable: one Program, run by 8 goroutines at once on the tables it
// was prepared from and on other tables of the same schemas, with 1 and 2
// workers, on hash and on sort-merge plans, equals a fresh Prepare + Run
// of every execution bit for bit — rows, the per-operator profile and the
// trace fingerprint.
func TestProgramConcurrentRuns(t *testing.T) {
	type caseT struct {
		label string
		q     *query.Query
		p     *plan.Plan
		datas []engine.TableData // the program is prepared against datas[0]
	}
	var cases []caseT
	for _, mode := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
		for _, name := range []string{"Q3", "Q5"} {
			q := tpch.Queries()[name]
			res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: mode})
			if err != nil {
				t.Fatal(err)
			}
			var datas []engine.TableData
			for seed := int64(1); seed <= 2; seed++ {
				datas = append(datas, tpch.GenerateTables(rand.New(rand.NewSource(seed)), q, tpch.ExecutionScaleAt(name, 0.2)))
			}
			cases = append(cases, caseT{fmt.Sprintf("%s/%v", name, mode), q, res.Plan, datas})
		}
		rng := rand.New(rand.NewSource(26))
		for trial := 0; trial < 4; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: 3 + trial})
			res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: mode})
			if err != nil {
				t.Fatal(err)
			}
			datas := []engine.TableData{engine.RandomData(rng, q, 12).Tables(), engine.RandomData(rng, q, 12).Tables()}
			cases = append(cases, caseT{fmt.Sprintf("rand%d/%v", trial, mode), q, res.Plan, datas})
		}
	}
	configs := []engine.ExecOptions{{Workers: 1}, {Workers: 2, MorselSize: 3}}

	for _, c := range cases {
		prog, err := engine.Prepare(c.q, c.p, c.datas[0].Schemas())
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		// The reference: a fresh compilation per execution.
		var want []programRun
		for _, d := range c.datas {
			for _, o := range configs {
				fresh, err := engine.Prepare(c.q, c.p, d.Schemas())
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				if want = append(want, runProgram(fresh, d, o)); want[len(want)-1].err != nil {
					t.Fatalf("%s: %v", c.label, want[len(want)-1].err)
				}
			}
		}
		const goroutines = 8
		got := make([][]programRun, goroutines)
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := range goroutines {
			go func() {
				defer wg.Done()
				got[g] = make([]programRun, len(want))
				// Every goroutine starts at another execution, so the same
				// program runs different data and options at the same time.
				for k := range want {
					i := (g + k) % len(want)
					got[g][i] = runProgram(prog, c.datas[i/len(configs)], configs[i%len(configs)])
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i, w := range want {
				r := got[g][i]
				label := fmt.Sprintf("%s data=%d workers=%d goroutine=%d", c.label, i/len(configs), configs[i%len(configs)].Workers, g)
				if r.err != nil {
					t.Fatalf("%s: %v", label, r.err)
				}
				identicalTables(t, label, w.tab, r.tab)
				if !reflect.DeepEqual(w.stats.Ops, r.stats.Ops) || w.stats.ActualCout != r.stats.ActualCout || w.stats.ResultRows != r.stats.ResultRows {
					t.Fatalf("%s: profile differs:\nwant %+v\ngot  %+v", label, w.stats.Ops, r.stats.Ops)
				}
				if w.trace != r.trace {
					t.Fatalf("%s: trace fingerprint differs:\nwant:\n%s\ngot:\n%s", label, w.trace, r.trace)
				}
			}
		}
	}
}

// permuted returns t with its columns in reverse order: the same relation
// under another schema.
func permuted(t *algebra.Table) *algebra.Table {
	names := slices.Clone(t.Schema.Names())
	slices.Reverse(names)
	out := &algebra.Table{Schema: algebra.NewSchema(names)}
	for _, row := range t.Rows {
		r := slices.Clone(row)
		slices.Reverse(r)
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestPrepareChecksSchemas pins Run's refusal of tables it was not
// prepared for: a table whose columns are in another order is a
// *SchemaError before anything executes, a missing one the "no data"
// error, and equal schemas that are distinct objects run.
func TestPrepareChecksSchemas(t *testing.T) {
	q := tpch.Queries()["Q3"]
	data := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt("Q3", 0.2))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Prepare(q, res.Plan, data.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prog.Run(data, engine.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	swapped := maps.Clone(data)
	swapped[1] = permuted(data[1])
	tr := obs.NewTrace()
	var se *engine.SchemaError
	if _, _, err := prog.Run(swapped, engine.ExecOptions{Workers: 1, Trace: tr}); !errors.As(err, &se) || se.Rel != 1 {
		t.Fatalf("permuted columns: err %v, want a *SchemaError for relation 1", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("a refused run recorded %d spans", tr.Len())
	}
	// Prepared for the permuted tables, the same plan computes the same rows.
	own, err := engine.Prepare(q, res.Plan, swapped.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := own.Run(swapped, engine.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	identicalTables(t, "prepared for the permuted tables", want, got)

	missing := maps.Clone(data)
	delete(missing, 2)
	if _, _, err := prog.Run(missing, engine.ExecOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "no data for relation 2") {
		t.Fatalf("missing relation: err %v", err)
	}
	if _, err := engine.Prepare(q, res.Plan, missing.Schemas()); err == nil || !strings.Contains(err.Error(), "no data for relation 2") {
		t.Fatalf("preparing without relation 2: err %v", err)
	}

	// Equal names under distinct schema objects pass the check.
	copied := maps.Clone(data)
	copied[1] = &algebra.Table{Schema: algebra.NewSchema(data[1].Schema.Names()), Rows: data[1].Rows}
	got, _, err = prog.Run(copied, engine.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	identicalTables(t, "equal schema, another object", want, got)
}
