package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// TestParseRuntime pins the name-resolution contract: empty and "batch"
// are the batch runtime (the default, and the zero value), "row" is the
// row runtime, anything else errors — and so does executing under a
// Runtime value that names neither.
func TestParseRuntime(t *testing.T) {
	for s, want := range map[string]Runtime{"": RuntimeBatch, "batch": RuntimeBatch, "row": RuntimeRow} {
		got, err := ParseRuntime(s)
		if err != nil || got != want {
			t.Errorf("ParseRuntime(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseRuntime("vector"); err == nil {
		t.Error("ParseRuntime must reject unknown names")
	}
	if RuntimeRow.String() != "row" || RuntimeBatch.String() != "batch" {
		t.Error("Runtime.String mismatch")
	}
	if (ExecOptions{}).Runtime != RuntimeBatch {
		t.Error("the zero-value ExecOptions must select the batch runtime")
	}

	rng := rand.New(rand.NewSource(90216))
	q := randquery.Generate(rng, randquery.Params{Relations: 3})
	data := RandomData(rng, q, 6).Tables()
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgDPhyp})
	if err != nil {
		t.Fatal(err)
	}
	const want = "engine: unknown runtime Runtime(7)"
	if _, _, err := ExecProfiledOpts(q, res.Plan, data, ExecOptions{Runtime: 7}); err == nil || err.Error() != want {
		t.Errorf("ExecProfiledOpts under Runtime(7): error %v, want %q", err, want)
	}
}

// floatAggArgs returns a copy of the tables in which every argument
// column of the query's aggregates holds floats instead of ints
// (0.1·v + 0.7: not exactly representable, so sums and averages over
// them round differently in a different order). The random generator
// gives aggregates argument attributes of their own — never join,
// grouping or key attributes — so the query's result shape is unchanged.
func floatAggArgs(q *query.Query, data TableData) TableData {
	out := make(TableData, len(data))
	for id, tab := range data {
		ft := &algebra.Table{Schema: tab.Schema, Rows: make([]algebra.Row, len(tab.Rows))}
		for i, row := range tab.Rows {
			ft.Rows[i] = append(algebra.Row(nil), row...)
		}
		for _, a := range q.Aggregates {
			if slot, ok := tab.Schema.Slot(a.Arg); ok && a.Arg != "" {
				for _, row := range ft.Rows {
					if row[slot].Kind == algebra.KindInt {
						row[slot] = algebra.Float(0.1*float64(row[slot].I) + 0.7)
					}
				}
			}
		}
		out[id] = ft
	}
	return out
}

// TestBatchParallelDeterminism is the batch runtime's version of the
// central determinism contract: on random queries and data, executing an
// optimized plan on the batch runtime — for every (workers, batch-size)
// pair — must return a table bit-identical to the sequential row
// runtime's. Every second query aggregates floats, with its sums
// turned into averages on alternate occasions, so order-sensitive float
// sum and avg states cross the parallel probes, gathers and emits.
func TestBatchParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(90217))
	algs := []core.Options{
		{Algorithm: core.AlgDPhyp},
		{Algorithm: core.AlgEAPrune},
		{Algorithm: core.AlgH1},
	}
	batchSizes := []int{1, 7, 1024}
	queries, floatSums := 0, 0
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 6; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			data := RandomData(rng, q, 14).Tables()
			queries++
			if queries%2 == 0 {
				data = floatAggArgs(q, data)
				floatSums += convertSums(q, queries%4 == 0)
			}
			opts := algs[(queries-1)%len(algs)]
			res, err := core.Optimize(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := ExecProfiledOpts(q, res.Plan, data, RowOracle)
			if err != nil {
				t.Fatalf("n=%d trial=%d sequential: %v", n, trial, err)
			}
			for _, bs := range batchSizes {
				for _, workers := range []int{1, 8} {
					eo := ExecOptions{Workers: workers, Runtime: RuntimeBatch, BatchSize: bs}
					if workers > 1 {
						eo.MorselSize = 2
					}
					got, _, err := ExecProfiledOpts(q, res.Plan, data, eo)
					if err != nil {
						t.Fatalf("n=%d trial=%d batch=%d workers=%d: %v", n, trial, bs, workers, err)
					}
					identicalTables(t,
						fmt.Sprintf("n=%d trial=%d %v batch=%d workers=%d", n, trial, opts.Algorithm, bs, workers),
						seq, got)
				}
			}
		}
	}
	if queries < 25 || floatSums < 5 {
		t.Fatalf("workload too small: %d queries, %d float sums/averages", queries, floatSums)
	}
}

// convertSums counts the query's sum aggregates and, when toAvg is set,
// turns them into averages in place (before the query is optimized).
func convertSums(q *query.Query, toAvg bool) int {
	n := 0
	for i := range q.Aggregates {
		if q.Aggregates[i].Kind == aggfn.Sum {
			n++
			if toAvg {
				q.Aggregates[i].Kind = aggfn.Avg
			}
		}
	}
	return n
}

// TestExecStatsHashTelemetry pins that hash-table telemetry flows
// through ExecProfiledOpts: on RandomData's few-valued int columns the
// batch runtime addresses its single-column keys directly (those builds
// are counted as dense; occupancy at most 1); with the values spread out
// it builds the flat hash tables only (none dense, load factor at most
// 0.75); the sequential row runtime stays on Go maps and reports zero
// builds.
func TestExecStatsHashTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(90218))
	q := randquery.Generate(rng, randquery.Params{Relations: 4})
	rel := RandomData(rng, q, 14)
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := ExecProfiledOpts(q, res.Plan, rel.Tables(), ExecOptions{Workers: 1, Runtime: RuntimeBatch})
	if err != nil {
		t.Fatal(err)
	}
	if h := batch.Hash; h.Builds == 0 || h.Entries == 0 || h.Dense == 0 || h.Dense > h.Builds {
		t.Fatalf("batch runtime on dense keys: want direct-addressed builds: %+v", h)
	}
	if lf := batch.Hash.LoadFactor(); lf <= 0 || lf > 1 {
		t.Fatalf("dense occupancy %v outside (0, 1]", lf)
	}
	_, row, err := ExecProfiledOpts(q, res.Plan, rel.Tables(), RowOracle)
	if err != nil {
		t.Fatal(err)
	}
	if row.Hash.Builds != 0 {
		t.Fatalf("sequential row runtime built flat tables: %+v", row.Hash)
	}
	spreadInts(rel, 1000)
	_, sparse, err := ExecProfiledOpts(q, res.Plan, rel.Tables(), ExecOptions{Workers: 1, Runtime: RuntimeBatch})
	if err != nil {
		t.Fatal(err)
	}
	if h := sparse.Hash; h.Builds == 0 || h.Entries == 0 || h.Dense != 0 {
		t.Fatalf("batch runtime on spread keys: want only flat-table builds: %+v", h)
	}
	if lf := sparse.Hash.LoadFactor(); lf <= 0 || lf > 0.75 {
		t.Fatalf("batch load factor %v outside (0, 0.75]", lf)
	}
}
