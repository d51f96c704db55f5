package main

import (
	"fmt"
	"math/rand"
	"time"
)

const (
	// serveShapes is twice the plan cache's default 256 entries, so the
	// skewed draws below hit most of the time, miss steadily and evict.
	serveShapes  = 512
	serveClients = 2
	// serveOpsPerPass is each client's share of one pass.
	serveOpsPerPass = 4000
	// serveMaxRows keeps tables tiny: RandomData's join domains have
	// three values, so eight relations of 200 rows already exhaust memory.
	serveMaxRows = 8
	// Zipf(s = 1.1) over the ranks: the hottest shape draws 19% of the
	// requests, the hottest ten 55%, and the 256-entry plan cache hits
	// about 85% of the time.
	zipfS = 1.1
	zipfV = 1
)

type serveShape struct {
	q       *Query
	dataset string
	attrs   []string
	want    *Rel
}

// serveWorkload is many tiny queries through one engine from two clients:
// per-request fixed costs (fingerprint, cache lookup and single-flight,
// admission, pool hand-off, compiling a tiny execution) dominate, and the
// cache-miss tail carries the DP cost.
type serveWorkload struct {
	shapes     []*serveShape
	seqs       [serveClients][]int32
	eng        *Engine
	sess       [serveClients]*Session
	req        request
	generateMS float64
	oracleMS   float64
}

func newServe() workload { return &serveWorkload{} }

func (w *serveWorkload) clients() int             { return serveClients }
func (w *serveWorkload) opsPerPass(c int) int     { return len(w.seqs[c]) }
func (w *serveWorkload) beginPass(int)            {} // two clients interleave anyway
func (w *serveWorkload) counters() sharedCounters { return engineCounters(w.eng) }

func (w *serveWorkload) tearDown() {
	if w.eng != nil {
		w.eng.Close()
	}
	*w = serveWorkload{}
}

// setUp builds the population, shapes and tables, from populationSeed:
// with ten shapes drawing half the requests, a population drawn from --seed
// would make every timing the luck of those ten. --seed drives the clients'
// Zipf draws, so each run requests the shapes in another order and mix.
func (w *serveWorkload) setUp(seed int64) error {
	*w = serveWorkload{}
	rng := rand.New(rand.NewSource(populationSeed))
	draws := rand.New(rand.NewSource(seed))
	var err error
	if w.req, err = buildRequest(algEAPrune, "hash", "batch"); err != nil {
		return err
	}
	w.eng = newEngine(2, serveClients)
	for i := 0; i < serveShapes; i++ {
		sh := &serveShape{dataset: fmt.Sprintf("s%d", i)}
		t0 := time.Now()
		sh.q = randomQuery(rng, 4+i%5) // n = 4…8
		data := randomData(rng, sh.q, serveMaxRows)
		w.generateMS += ms(time.Since(t0))
		sh.attrs = outputAttrs(sh.q)
		t0 = time.Now()
		if sh.want, err = canonicalRef(sh.q, data); err != nil {
			return fmt.Errorf("oracle shape %d: %w", i, err)
		}
		w.oracleMS += ms(time.Since(t0))
		w.eng.Register(sh.dataset, data.Tables())
		w.shapes = append(w.shapes, sh)
	}
	// Each client draws from its own Zipf; rank r is shape r for both, so
	// the two share the hot shapes and race on the cold ones.
	for c := range w.seqs {
		w.sess[c] = w.eng.NewSession()
		z := rand.NewZipf(rand.New(rand.NewSource(draws.Int63())), zipfS, zipfV, serveShapes-1)
		w.seqs[c] = make([]int32, serveOpsPerPass)
		for i := range w.seqs[c] {
			w.seqs[c][i] = int32(z.Uint64())
		}
	}

	// Warm-up: every shape once, coldest first, so the cache ends up
	// holding the hot half.
	for i := serveShapes - 1; i >= 0; i-- {
		sh := w.shapes[i]
		resp, err := w.req.execute(w.sess[0], sh.q, sh.dataset, nil)
		if err != nil {
			return fmt.Errorf("warm-up shape %d: %w", i, err)
		}
		if !w.verify(sh, resp) {
			return fmt.Errorf("warm-up shape %d: result differs from the nested-loop oracle", i)
		}
	}
	return w.selfTest()
}

func (w *serveWorkload) verify(sh *serveShape, resp *Response) bool {
	return equalBags(sh.want, resp.Table.Rel(), sh.attrs)
}

// selfTest corrupts one value of the first non-empty answer and requires
// EqualBags to notice.
func (w *serveWorkload) selfTest() error {
	for _, sh := range w.shapes {
		if len(sh.want.Tuples) == 0 {
			continue
		}
		bad := &Rel{Attrs: sh.want.Attrs, Tuples: append(sh.want.Tuples[:0:0], sh.want.Tuples...)}
		t := make(map[string]Value, len(bad.Tuples[0]))
		for k, v := range bad.Tuples[0] {
			t[k] = v
		}
		a := sh.attrs[len(sh.attrs)-1]
		t[a] = intValue(t[a].I + 1)
		bad.Tuples[0] = t
		if equalBags(sh.want, bad, sh.attrs) {
			return fmt.Errorf("self-test: the oracle accepted a corrupted value")
		}
		return nil
	}
	return fmt.Errorf("self-test: every oracle result is empty")
}

func (w *serveWorkload) do(c, i int, a *acc, tr *Trace) {
	sh := w.shapes[w.seqs[c][i]]
	o := startOp(tr)
	resp, err := w.req.execute(w.sess[c], sh.q, sh.dataset, tr)
	o.returned()
	o.verified(a, err == nil && w.verify(sh, resp))
	if a.detail && err == nil {
		a.noteResponse(resp, o.lat)
	}
}

func (w *serveWorkload) probe(m metricSet) {
	m["randquery.generate_ms"] = w.generateMS
	m["engine.oracle_ms"] = w.oracleMS
	qs := make([]*Query, 0, 64)
	for _, sh := range w.shapes[:64] {
		qs = append(qs, sh.q)
	}
	probeOptimizer(m, qs, "hash", 3*time.Second)
}
