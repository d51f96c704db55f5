package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/plan"
	"eagg/internal/randquery"
)

// FuzzExecEquivalence fuzzes the end-to-end correctness property of the
// execution stack: for a random query (derived deterministically from the
// fuzz inputs) and random data, the optimized plan executed on the batch
// runtime must equal the canonical result (evaluated by the sequential
// row operators), both must equal their frozen nested-loop references,
// and batch execution — sequential and morsel-parallel (Workers>1,
// fuzz-chosen morsel and batch sizes) — must be bit-identical to the
// sequential row runtime (RowOracle), float sums and output order
// included. The cardinality feedback loop (Reoptimize) may
// change the chosen plan but must still reproduce the canonical result.
// RandomData draws every int from a range of a few values, which the
// batch runtime addresses directly (algebra/dense.go); odd seeds spread
// the values out so that its hash path is fuzzed as well — the seed corpus
// holds both parities. Run the smoke locally with
//
//	go test -run '^$' -fuzz FuzzExecEquivalence -fuzztime 20s ./internal/engine
//
// CI runs a short -fuzztime on every push; crashers land in
// testdata/fuzz as usual and replay with plain go test.
func FuzzExecEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0))
	f.Add(int64(42), uint8(2), uint8(1), uint8(1))
	f.Add(int64(7), uint8(5), uint8(6), uint8(2))
	f.Add(int64(-12345), uint8(4), uint8(3), uint8(3))
	f.Add(int64(987654321), uint8(6), uint8(5), uint8(4))

	algs := []core.Options{
		{Algorithm: core.AlgDPhyp},
		{Algorithm: core.AlgEAPrune},
		{Algorithm: core.AlgH1},
		{Algorithm: core.AlgH2, F: 1.03},
		{Algorithm: core.AlgBeam, BeamWidth: 4},
	}

	f.Fuzz(func(t *testing.T, seed int64, nRel, maxRows, algPick uint8) {
		n := 2 + int(nRel)%5       // 2..6 relations
		rows := 1 + int(maxRows)%6 // data size knob
		opts := algs[int(algPick)%len(algs)]

		rng := rand.New(rand.NewSource(seed))
		q := randquery.Generate(rng, randquery.Params{Relations: n})
		data := RandomData(rng, q, rows)
		if seed%2 != 0 {
			spreadInts(data, 1000)
		}
		attrs := OutputAttrs(q)

		want, err := Canonical(q, data)
		if err != nil {
			t.Fatal(err)
		}
		wantRef, err := CanonicalRef(q, data)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.EqualBags(wantRef, want, attrs) {
			t.Fatalf("seed=%d n=%d: Canonical (slot) differs from CanonicalRef\nref:\n%v\nslot:\n%v",
				seed, n, wantRef, want)
		}

		res, err := core.Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exec(q, res.Plan, data)
		if err != nil {
			t.Fatalf("exec: %v\nplan:\n%v", err, res.Plan.StringWithQuery(q))
		}
		if !algebra.EqualBags(want, got, attrs) {
			t.Fatalf("seed=%d n=%d %v: Execute ≢ Canonical\nplan:\n%v\nwant:\n%v\ngot:\n%v",
				seed, n, opts.Algorithm, res.Plan.StringWithQuery(q), want, got)
		}
		gotRef, err := ExecRef(q, res.Plan, data)
		if err != nil {
			t.Fatalf("ref exec: %v", err)
		}
		if !algebra.EqualBags(gotRef, got, attrs) {
			t.Fatalf("seed=%d n=%d %v: Execute (slot) ≢ ExecRef\nplan:\n%v\nref:\n%v\nslot:\n%v",
				seed, n, opts.Algorithm, res.Plan.StringWithQuery(q), gotRef, got)
		}

		// Wide arm: forcing the multi-word set representation onto a
		// query the Set64 fast path handles must pick the structurally
		// identical plan, and that plan must execute end-to-end to the
		// canonical result.
		wopts := opts
		wopts.ForceWide = true
		wres, err := core.Optimize(q, wopts)
		if err != nil {
			t.Fatalf("wide optimize: %v", err)
		}
		if !plan.Equal(res.Plan, wres.Plan) {
			t.Fatalf("seed=%d n=%d %v: wide plan ≢ fast-path plan\nfast:\n%v\nwide:\n%v",
				seed, n, opts.Algorithm, res.Plan.StringWithQuery(q), wres.Plan.StringWithQuery(q))
		}
		wideGot, err := Exec(q, wres.Plan, data)
		if err != nil {
			t.Fatalf("wide exec: %v\nplan:\n%v", err, wres.Plan.StringWithQuery(q))
		}
		if !algebra.EqualBags(want, wideGot, attrs) {
			t.Fatalf("seed=%d n=%d %v: wide Execute ≢ Canonical\nplan:\n%v\nwant:\n%v\ngot:\n%v",
				seed, n, opts.Algorithm, wres.Plan.StringWithQuery(q), want, wideGot)
		}

		// Workers>1 arm: parallel execution must be bit-identical to
		// the sequential row runtime (not merely bag-equal).
		tables := data.Tables()
		workers := 2 + int(algPick)%7
		popts := ExecOptions{Workers: workers, MorselSize: 1 + int(maxRows)%5}
		seqTab, err := ExecTablesOpts(q, res.Plan, tables, RowOracle)
		if err != nil {
			t.Fatalf("sequential exec: %v", err)
		}
		parTab, err := ExecTablesOpts(q, res.Plan, tables, popts)
		if err != nil {
			t.Fatalf("parallel exec (workers=%d): %v", workers, err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d %v workers=%d", seed, n, opts.Algorithm, workers), seqTab, parTab)

		// Batch-size arm: the same against the row runtime sequentially
		// and under morsel parallelism, for a fuzz-chosen batch size.
		bs := 1 + int(maxRows)%9
		batchTab, err := ExecTablesOpts(q, res.Plan, tables, ExecOptions{Workers: 1, Runtime: RuntimeBatch, BatchSize: bs})
		if err != nil {
			t.Fatalf("batch exec: %v", err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d %v batch=%d", seed, n, opts.Algorithm, bs), seqTab, batchTab)
		batchPar, err := ExecTablesOpts(q, res.Plan, tables,
			ExecOptions{Workers: workers, MorselSize: popts.MorselSize, Runtime: RuntimeBatch, BatchSize: bs})
		if err != nil {
			t.Fatalf("parallel batch exec: %v", err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d %v batch=%d workers=%d", seed, n, opts.Algorithm, bs, workers), seqTab, batchPar)
		// The same pair over float aggregate arguments: order-sensitive
		// sums must come through the parallel batch run's probe, gather
		// and emit fan-outs unchanged (the -phys arm below does the same
		// across the sort-group span merge).
		ftables := floatAggArgs(q, tables)
		seqF, err := ExecTablesOpts(q, res.Plan, ftables, RowOracle)
		if err != nil {
			t.Fatalf("sequential exec (float args): %v", err)
		}
		batchParF, err := ExecTablesOpts(q, res.Plan, ftables,
			ExecOptions{Workers: workers, MorselSize: popts.MorselSize, Runtime: RuntimeBatch, BatchSize: bs})
		if err != nil {
			t.Fatalf("parallel batch exec (float args): %v", err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d %v batch=%d workers=%d float args", seed, n, opts.Algorithm, bs, workers), seqF, batchParF)

		// -phys arm: the sort-based physical layer. The sort-mode plan
		// (annotated with merge keys, sort/reuse decisions and
		// contractual orders) must execute bit-identically to the same
		// logical plan stripped to the hash layer — both on the row
		// runtime — and bag-equal to the canonical result; its parallel
		// batch execution must be bit-identical to that.
		physMode := core.PhysModeSort
		popt := opts
		popt.Phys = physMode
		pres, err := core.Optimize(q, popt)
		if err != nil {
			t.Fatalf("phys optimize (%v): %v", physMode, err)
		}
		physTab, err := ExecTablesOpts(q, pres.Plan, tables, RowOracle)
		if err != nil {
			t.Fatalf("phys exec (%v): %v\nplan:\n%v", physMode, err, pres.Plan.StringWithQuery(q))
		}
		strippedTab, err := ExecTablesOpts(q, plan.StripPhys(pres.Plan), tables, RowOracle)
		if err != nil {
			t.Fatalf("phys stripped exec: %v", err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d %v phys=%v sort≡hash", seed, n, opts.Algorithm, physMode), strippedTab, physTab)
		if !algebra.EqualBags(want, physTab.Rel(), attrs) {
			t.Fatalf("seed=%d n=%d %v phys=%v: ≢ Canonical\nplan:\n%v",
				seed, n, opts.Algorithm, physMode, pres.Plan.StringWithQuery(q))
		}
		physPar, err := ExecTablesOpts(q, pres.Plan, tables, popts)
		if err != nil {
			t.Fatalf("phys parallel exec: %v", err)
		}
		identicalTables(t, fmt.Sprintf("seed=%d n=%d phys=%v workers=%d", seed, n, physMode, workers), physTab, physPar)
		// Sort-annotated plans on the batch runtime run the columnar
		// sort-merge join and sort-group: bit-identical to the row
		// runtime sequentially and span-parallel, and — over float
		// aggregate arguments — to the hash layer's fold order.
		strippedF, err := ExecTablesOpts(q, plan.StripPhys(pres.Plan), ftables, RowOracle)
		if err != nil {
			t.Fatalf("phys stripped exec (float args): %v", err)
		}
		for _, bo := range []ExecOptions{
			{Workers: 1, Runtime: RuntimeBatch, BatchSize: bs},
			{Workers: workers, MorselSize: popts.MorselSize, Runtime: RuntimeBatch, BatchSize: bs},
		} {
			physBatch, err := ExecTablesOpts(q, pres.Plan, tables, bo)
			if err != nil {
				t.Fatalf("phys batch exec (workers=%d): %v", bo.Workers, err)
			}
			identicalTables(t, fmt.Sprintf("seed=%d n=%d phys=%v batch=%d workers=%d", seed, n, physMode, bs, bo.Workers), physTab, physBatch)
			physBatchF, err := ExecTablesOpts(q, pres.Plan, ftables, bo)
			if err != nil {
				t.Fatalf("phys batch exec (float args, workers=%d): %v", bo.Workers, err)
			}
			identicalTables(t, fmt.Sprintf("seed=%d n=%d phys=%v batch=%d workers=%d float args ≡ hash plan", seed, n, physMode, bs, bo.Workers), strippedF, physBatchF)
		}

		// Feedback arm: the cardinality feedback loop may change the
		// chosen plan, never the answer — every re-optimized plan must
		// execute to the canonical result.
		fb, err := Reoptimize(q, tables, FeedbackOptions{Opt: opts, MaxRounds: 3})
		if err != nil {
			t.Fatalf("reoptimize: %v", err)
		}
		if !algebra.EqualBags(want, fb.Result.Rel(), attrs) {
			final := fb.Final()
			t.Fatalf("seed=%d n=%d %v: re-optimized plan ≢ Canonical (rounds=%d changed=%v)\nplan:\n%v\nwant:\n%v\ngot:\n%v",
				seed, n, opts.Algorithm, len(fb.Rounds), fb.PlanChanged(),
				final.Plan.StringWithQuery(q), want, fb.Result.Rel())
		}
	})
}

// spreadInts multiplies every int in data by stride: an injective map, so
// joins and groups pair up the same rows, but key ranges grow beyond what
// the batch runtime addresses directly.
func spreadInts(data Data, stride int64) {
	for _, rel := range data {
		for _, tup := range rel.Tuples {
			for name, v := range tup {
				if v.Kind == algebra.KindInt {
					tup[name] = algebra.Int(v.I * stride)
				}
			}
		}
	}
}
