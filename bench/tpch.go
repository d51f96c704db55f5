package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// tpchMix is one pass of a TPC-H workload: how many operations of each
// shape, exactly proportioned and reshuffled from the seed every pass. The
// weights keep both percentiles inside one shape's latency cluster and off
// the boundaries between shapes, where they would flip from run to run.
type tpchMix []struct {
	name  string
	count int
}

var (
	// On the hash layer the shapes are well apart (Ex 40 ms, Q5 95, Q10
	// 210, Q3 370 at factor 1000), so at 40/20/20/20 op_p50_ms is the
	// middle of the Q10 cluster and op_p90_ms the upper quartile of Q3's.
	hashMix = tpchMix{{"Q3", 4}, {"Q10", 2}, {"Q5", 2}, {"Ex", 2}}
	// On the sort layer Q5, Q10 and Ex overlap in one cluster (175-300 ms
	// at factor 500) below Q3 (350-450). With Q3 at 40% the median is the
	// 83rd percentile of that cluster, its thin GC-stretched tail, and
	// moved by 20% between runs of one seed; with Q3 at 20% and Q10 at 40%
	// it lies in the cluster's dense middle and op_p90_ms in Q3's.
	sortMix = tpchMix{{"Q3", 2}, {"Q10", 4}, {"Q5", 2}, {"Ex", 2}}
)

// exCheckFactor is the scale at which the closed-form Ex oracle is
// compared with the canonical tree at every set-up (the tree's full
// outer join is quadratic, 45k rows here and 7e9 at factor 1000).
const exCheckFactor = 5

type tpchShape struct {
	name  string
	q     *Query
	data  TableData
	attrs []string
	want  checksum
}

// tpchWorkload serves the four TPC-H shapes from one engine to one
// client over a warm plan cache, so the join and aggregation kernels and
// result conversion do nearly all the work.
type tpchWorkload struct {
	phys   string
	factor float64
	mix    tpchMix

	seed   int64
	shapes []*tpchShape
	seq    []int
	eng    *Engine
	sess   *Session
	req    request

	generateMS, oracleMS float64
	rowsGenerated        int
}

func newTPCH(phys string, factor float64, mix tpchMix) func() workload {
	return func() workload { return &tpchWorkload{phys: phys, factor: factor, mix: mix} }
}

func (w *tpchWorkload) clients() int       { return 1 }
func (w *tpchWorkload) opsPerPass(int) int { return len(w.seq) }
func (w *tpchWorkload) beginPass(n int)    { shufflePass(w.seq, w.seed, n) }

func (w *tpchWorkload) setUp(seed int64) error {
	*w = tpchWorkload{phys: w.phys, factor: w.factor, mix: w.mix, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.req, err = buildRequest(algEAPrune, w.phys, "batch"); err != nil {
		return err
	}
	w.eng = newEngine(2, 0)
	w.sess = w.eng.NewSession()
	for si, m := range w.mix {
		sh := &tpchShape{name: m.name, q: tpchQuery(m.name)}
		sh.attrs = outputAttrs(sh.q)
		t0 := time.Now()
		sh.data = tpchGenerate(rand.New(rand.NewSource(rng.Int63())), sh.q, sh.name, w.factor)
		w.generateMS += ms(time.Since(t0))
		for _, t := range sh.data {
			w.rowsGenerated += t.Card()
		}
		t0 = time.Now()
		if sh.want, err = w.oracle(sh, rng); err != nil {
			return fmt.Errorf("oracle %s: %w", sh.name, err)
		}
		w.oracleMS += ms(time.Since(t0))
		w.eng.Register(sh.name, sh.data)
		w.shapes = append(w.shapes, sh)
		for i := 0; i < m.count; i++ {
			w.seq = append(w.seq, si)
		}
	}
	w.beginPass(0)

	// Warm-up: one request per shape columnarizes the tables and fills
	// the plan cache. The answers double as the oracle's self-test.
	for _, sh := range w.shapes {
		resp, err := w.req.execute(w.sess, sh.q, sh.name, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", sh.name, err)
		}
		if !w.verify(sh, resp) {
			return fmt.Errorf("warm-up %s: result differs from the oracle", sh.name)
		}
		if err := w.selfTest(sh, resp.Table); err != nil {
			return err
		}
	}
	return nil
}

// oracle is the canonical evaluation of the unoptimized tree on the row
// runtime with one worker. Ex is the exception: its tree joins every
// supplier of a nation with every customer of it, so its oracle is the
// closed form below, itself checked against the tree at a small scale.
func (w *tpchWorkload) oracle(sh *tpchShape, rng *rand.Rand) (checksum, error) {
	if sh.name != "Ex" {
		return canonicalChecksum(sh.q, sh.data, sh.attrs)
	}
	small := tpchGenerate(rand.New(rand.NewSource(rng.Int63())), sh.q, sh.name, exCheckFactor)
	tree, err := canonicalChecksum(sh.q, small, sh.attrs)
	if err != nil {
		return checksum{}, err
	}
	closed, err := exClosedForm(sh.q, small, sh.attrs)
	if err != nil {
		return checksum{}, err
	}
	if closed != tree {
		return checksum{}, errors.New("closed form disagrees with the canonical tree")
	}
	return exClosedForm(sh.q, sh.data, sh.attrs)
}

func canonicalChecksum(q *Query, data TableData, attrs []string) (checksum, error) {
	t, err := canonicalTables(q, data)
	if err != nil {
		return checksum{}, err
	}
	c, ok := checksumTable(t, attrs)
	if !ok {
		return checksum{}, errors.New("canonical result lacks an output attribute")
	}
	return c, nil
}

// exClosedForm evaluates the paper's introduction query from its
// definition: (nation_s ⋈ supplier) full-outer-joined with
// (nation_c ⋈ customer) on the nation key, grouped by the two nation
// names with count(*). Per nation key that is |suppliers|·|customers|
// rows, or the non-empty side alone padded with NULL.
func exClosedForm(q *Query, data TableData, attrs []string) (checksum, error) {
	rel := func(name string) *Table {
		for i, r := range q.Relations {
			if r.Name == name {
				return data[i]
			}
		}
		return nil
	}
	// side returns, per nation key, the nation's name and how many rows
	// of the member table reference it.
	type nation struct {
		name Value
		n    int64
	}
	side := func(nationRel, keyAttr, nameAttr, memberRel, fkAttr string) (map[int64]*nation, error) {
		nt, mt := rel(nationRel), rel(memberRel)
		if nt == nil || mt == nil {
			return nil, fmt.Errorf("missing relation %s or %s", nationRel, memberRel)
		}
		key, ok1 := nt.Schema.Slot(keyAttr)
		name, ok2 := nt.Schema.Slot(nameAttr)
		fk, ok3 := mt.Schema.Slot(fkAttr)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("missing attribute of %s or %s", nationRel, memberRel)
		}
		out := map[int64]*nation{}
		for _, row := range nt.Rows {
			out[row[key].I] = &nation{name: row[name]}
		}
		for _, row := range mt.Rows {
			if n := out[row[fk].I]; n != nil {
				n.n++
			}
		}
		return out, nil
	}
	sup, err := side("nation_s", "ns.n_nationkey", "ns.n_name", "supplier", "s.s_nationkey")
	if err != nil {
		return checksum{}, err
	}
	cus, err := side("nation_c", "nc.n_nationkey", "nc.n_name", "customer", "c.c_nationkey")
	if err != nil {
		return checksum{}, err
	}
	groups := map[[2]Value]int64{}
	for k, s := range sup {
		if s.n == 0 {
			continue
		}
		if c := cus[k]; c != nil && c.n > 0 {
			groups[[2]Value{s.name, c.name}] += s.n * c.n
		} else {
			groups[[2]Value{s.name, nullValue}] += s.n
		}
	}
	for k, c := range cus {
		if s := sup[k]; c.n > 0 && (s == nil || s.n == 0) {
			groups[[2]Value{nullValue, c.name}] += c.n
		}
	}
	var sum checksum
	row := make([]Value, len(attrs))
	for g, n := range groups {
		for i, a := range attrs {
			switch a {
			case "ns.n_name":
				row[i] = g[0]
			case "nc.n_name":
				row[i] = g[1]
			case "cnt":
				row[i] = intValue(n)
			default:
				return checksum{}, fmt.Errorf("unexpected output attribute %q", a)
			}
		}
		sum.add(row)
	}
	return sum, nil
}

func (w *tpchWorkload) verify(sh *tpchShape, resp *Response) bool {
	got, ok := checksumTable(resp.Table, sh.attrs)
	return ok && got == sh.want
}

// selfTest corrupts one value of a correct answer and requires the
// checksum to notice.
func (w *tpchWorkload) selfTest(sh *tpchShape, good *Table) error {
	if good.Card() == 0 {
		return fmt.Errorf("self-test %s: empty result", sh.name)
	}
	bad := &Table{Schema: good.Schema, Rows: append([]Row(nil), good.Rows...)}
	slot, _ := good.Schema.Slot(sh.attrs[len(sh.attrs)-1])
	row := append(Row(nil), bad.Rows[bad.Card()/2]...)
	row[slot] = intValue(row[slot].I + 1)
	bad.Rows[bad.Card()/2] = row
	if got, _ := checksumTable(bad, sh.attrs); got == sh.want {
		return fmt.Errorf("self-test %s: the oracle accepted a corrupted value", sh.name)
	}
	return nil
}

func (w *tpchWorkload) tearDown() {
	if w.eng != nil {
		w.eng.Close()
	}
	*w = tpchWorkload{phys: w.phys, factor: w.factor, mix: w.mix}
}

func (w *tpchWorkload) do(_, i int, a *acc, tr *Trace) {
	sh := w.shapes[w.seq[i]]
	o := startOp(tr)
	resp, err := w.req.execute(w.sess, sh.q, sh.name, tr)
	o.returned()
	o.verified(a, err == nil && w.verify(sh, resp))
	if a.detail && err == nil {
		a.noteResponse(resp, o.lat)
	}
}

func (w *tpchWorkload) counters() sharedCounters { return engineCounters(w.eng) }

func engineCounters(e *Engine) sharedCounters {
	m := e.Metrics()
	return sharedCounters{
		cacheHits: m.PlanCacheHits, cacheMisses: m.PlanCacheMiss, evictions: m.PlanCacheEvictions,
		admissionWaits:  m.AdmissionWaits,
		poolWorkerTasks: m.Pool.WorkerTasks, poolHelperTasks: m.Pool.HelperTasks, poolMaxQueued: m.Pool.MaxQueued,
	}
}

// probe times the engine directly, with no service in the way: each
// shape's EA-Prune plan on the batch runtime, once more under a trace
// for the time outside operators, and once on the row runtime.
func (w *tpchWorkload) probe(m metricSet) {
	m["tpch.generate_ms"] = w.generateMS
	m["tpch.rows_generated"] = float64(w.rowsGenerated)
	m["engine.oracle_ms"] = w.oracleMS

	var qs []*Query
	var batchMS, rowMS float64
	var nonOperatorMS []float64
	bothOK := true // every shape ran on both runtimes, so the two sums compare
	var largest *Table
	for _, sh := range w.shapes {
		qs = append(qs, sh.q)
		for _, t := range sh.data {
			if largest == nil || t.Card()*t.Schema.Len() > largest.Card()*largest.Schema.Len() {
				largest = t
			}
		}
		p, _, err := optimize(sh.q, algEAPrune, w.phys, 0, nil)
		if err != nil {
			bothOK = false
			continue
		}
		var runs []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, _, err := execProfiled(sh.q, p, sh.data, "batch", 0, nil); err != nil {
				break
			}
			runs = append(runs, ms(time.Since(t0)))
		}
		if len(runs) > 0 {
			m["engine.exec_ms."+sh.name] = median(runs)
			batchMS += median(runs)
		} else {
			bothOK = false
		}
		tr := newTrace()
		t0 := time.Now()
		if _, _, err := execProfiled(sh.q, p, sh.data, "batch", 0, tr); err == nil && tr.Len() > 0 {
			nonOperatorMS = append(nonOperatorMS, ms(time.Since(t0))-float64(tr.Spans()[0].DurNS)/1e6)
		}
		t0 = time.Now()
		if _, _, err := execProfiled(sh.q, p, sh.data, "row", 0, nil); err != nil {
			bothOK = false
		}
		rowMS += ms(time.Since(t0))
	}
	if len(nonOperatorMS) > 0 {
		m["engine.non_operator_ms"] = mean(nonOperatorMS)
	}
	if bothOK {
		m["engine.exec_row_ms"] = rowMS
		m["engine.batch_vs_row_ratio"] = batchMS / rowMS
	}
	var runs []float64
	for r := 0; r < 3; r++ {
		fresh := uncachedCopy(largest)
		t0 := time.Now()
		fresh.Columnar()
		runs = append(runs, ms(time.Since(t0)))
	}
	m["algebra.columnarize_ms"] = median(runs)
	probeOptimizer(m, qs, w.phys, time.Second)
}
