package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty slice must give NaN")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("1..10: got %g, %g", q1, q3)
	}
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	q1, q3 = quartiles(v)
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("%v: got %g, %g", v, q1, q3)
	}
	if m := median(v); m != 3.5 {
		t.Errorf("median %v = %g", v, m)
	}
	if s := spread(v); math.Abs(s-4.5/3.5) > 1e-12 {
		t.Errorf("spread %v = %g", v, s)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("one sample has no spread")
	}
}

// table builds a slot table of integers through the boundary relation.
func table(names []string, rows ...[]int64) *Table {
	rel := &Rel{Attrs: names}
	for _, r := range rows {
		tu := map[string]Value{}
		for i, n := range names {
			tu[n] = intValue(r[i])
		}
		rel.Tuples = append(rel.Tuples, tu)
	}
	return Data{0: rel}.Tables()[0]
}

func TestChecksum(t *testing.T) {
	a := table([]string{"g", "v"}, []int64{1, 10}, []int64{2, 20}, []int64{2, 20})
	reordered := table([]string{"v", "g"}, []int64{20, 2}, []int64{10, 1}, []int64{20, 2})
	ca, ok := checksumTable(a, []string{"g", "v"})
	if !ok {
		t.Fatal("attributes not found")
	}
	if cb, _ := checksumTable(reordered, []string{"g", "v"}); ca != cb {
		t.Error("row and column order must not matter")
	}
	if cb, _ := checksumTable(table([]string{"g", "v"}, []int64{1, 10}, []int64{2, 20}, []int64{2, 21}), []string{"g", "v"}); ca == cb {
		t.Error("a changed value went unnoticed")
	}
	if cb, _ := checksumTable(table([]string{"g", "v"}, []int64{1, 10}, []int64{2, 20}), []string{"g", "v"}); ca == cb {
		t.Error("a dropped duplicate went unnoticed")
	}
	swapped := table([]string{"g", "v"}, []int64{10, 1}, []int64{20, 2}, []int64{20, 2})
	if cb, _ := checksumTable(swapped, []string{"g", "v"}); ca == cb {
		t.Error("values swapped between columns went unnoticed")
	}
	if _, ok := checksumTable(a, []string{"g", "missing"}); ok {
		t.Error("a missing attribute must be reported")
	}
	for _, v := range []Value{intValue(-1), intValue(0), {Kind: kindFloat}, {Kind: kindString}} {
		if hashValue(v) == hashValue(nullValue) {
			t.Errorf("%+v hashes like NULL", v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// request ⊃ {execute ⊃ {optimize ⊃ {level, level}, op}, verify}
	spans := []Span{
		{ID: 0, Parent: -1, Name: "request", Cat: "bench", DurNS: 100},
		{ID: 1, Parent: 0, Name: "execute", Cat: "bench", DurNS: 80},
		{ID: 2, Parent: 1, Name: "optimize", Cat: "optimize", DurNS: 30},
		{ID: 3, Parent: 2, Name: "dp-level 2", Cat: "dp-level", DurNS: 10},
		{ID: 4, Parent: 2, Name: "dp-level 3", Cat: "dp-level", DurNS: 15},
		{ID: 5, Parent: 1, Name: "Γ {a}", Cat: "op", DurNS: 45},
		{ID: 6, Parent: 0, Name: "verify", Cat: "bench", DurNS: 15},
	}
	want := []int64{5, 5, 5, 10, 15, 45, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != spans[0].DurNS {
		t.Errorf("self times sum to %d, the root lasts %d", sum, spans[0].DurNS)
	}
	layers := []int{layerRequest, layerGlue, layerOptimize, layerDPLevels, layerDPLevels, layerGroup, layerVerify}
	for i, sp := range spans {
		if got := layerOf(sp); got != layers[i] {
			t.Errorf("span %q: layer %s, want %s", sp.Name, layerNames[got], layerNames[layers[i]])
		}
	}
	hit := Span{Name: "optimize", Cat: "optimize", Args: []SpanArg{{Key: "plan_cache", Value: "hit"}}}
	if layerOf(hit) != layerCacheHit {
		t.Error("a plan-cache hit's optimize span belongs to the service layer")
	}
	if layerOf(Span{Name: "scan lineitem", Cat: "op"}) != layerScan || layerOf(Span{Name: "Π", Cat: "op"}) != layerProject ||
		layerOf(Span{Name: "⋈ {a,b}", Cat: "op"}) != layerJoin {
		t.Error("operator spans are bucketed by name prefix")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"9% slower", lower, steady, scale(steady, 1.09), verdictOK},
		{"12% slower", lower, steady, scale(steady, 1.12), verdictRegressed},
		{"12% faster", lower, steady, scale(steady, 0.88), verdictOK},
		{"throughput down 12%", higher, steady, scale(steady, 0.88), verdictRegressed},
		{"throughput up 12%", higher, steady, scale(steady, 1.12), verdictOK},
		{"noisy side", lower, steady, []float64{80, 100, 125, 90, 140}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictRegressed},
		{"noisy set-up", metricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}, steady, []float64{80, 100, 125, 90, 100}, verdictUnresolved},
	} {
		if got, _, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	build := func(p50, plans float64, failed int, costRel float64) *results {
		r := &results{Meta: meta{Seeds: []int64{1}}, Workloads: map[string]*workloadResults{}}
		for _, spec := range workloads {
			wr := &workloadResults{Attempted: 100, SingleClient: true, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.Name] = &series{Unit: m.Unit, Values: []*float64{f(10)}}
			}
			for _, m := range perLayer {
				wr.PerLayer[m.Name] = &series{Unit: m.Unit, Values: []*float64{f(5)}}
			}
			r.Workloads[spec.Name] = wr
		}
		w := r.Workloads["optimize_cold"]
		w.EndToEnd["op_p50_ms"].Values[0] = f(p50)
		w.PerLayer["core.plans_built"].Values[0] = f(plans)
		w.PerLayer["core.cost_rel_eaprune_dphyp"].Values[0] = f(costRel)
		w.Failed = failed
		return r
	}
	base := build(10, 5, 0, 0.5)
	for _, c := range []struct {
		name      string
		b         *results
		regressed bool
		mention   string
	}{
		{"identical", build(10, 5, 0, 0.5), false, ""},
		{"slower", build(14, 5, 0, 0.5), true, verdictRegressed},
		{"count moved", build(10, 6, 0, 0.5), false, "exact count differs"},
		{"a failure", build(10, 5, 1, 0.5), true, "operations failed"},
		{"plan quality moved", build(10, 5, 0, 0.6), true, "plan quality moved"},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, base, c.b); got != c.regressed {
			t.Errorf("%s: regressed = %v\n%s", c.name, got, out.String())
		}
		if c.mention != "" && !bytes.Contains(out.Bytes(), []byte(c.mention)) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.mention, out.String())
		}
		if c.mention == "" && (bytes.Contains(out.Bytes(), []byte("differs")) || bytes.Contains(out.Bytes(), []byte("moved"))) {
			t.Errorf("%s: unexpected flag\n%s", c.name, out.String())
		}
	}
}

func TestResultLine(t *testing.T) {
	v := 1.5
	d := &runDetail{Correct: true, Attempted: 3, Metrics: map[string]metricValue{
		"a": {Value: &v, Unit: "ms"}, "b": {Unit: "count"},
	}}
	b, err := json.Marshal(resultLine(d))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"attempted":3,"correct":true,"failed":0,"metrics":{"a":{"unit":"ms","value":1.5},"b":{"unit":"count","value":0}}}`
	if string(b) != want {
		t.Errorf("got  %s\nwant %s", b, want)
	}
}

// onePass sets a workload up and runs one traced pass.
func onePass(t *testing.T, w workload, seed int64) *acc {
	t.Helper()
	if err := w.setUp(seed); err != nil {
		t.Fatal(err)
	}
	defer w.tearDown()
	ph := runPhase(w, 0, 0, true)
	if ph.total.failed != 0 {
		t.Fatalf("%d operations failed", ph.total.failed)
	}
	return ph.total
}

// The same seed must give the same operation sequence and the same exact
// counts; another seed must give other inputs.
func TestSeedDrivesTPCH(t *testing.T) {
	newSmall := newTPCH("hash", 2, hashMix)
	seqOf := func(seed int64) ([]int, []checksum) {
		w := newSmall().(*tpchWorkload)
		if err := w.setUp(seed); err != nil {
			t.Fatal(err)
		}
		defer w.tearDown()
		var want []checksum
		for _, sh := range w.shapes {
			want = append(want, sh.want)
		}
		return append([]int(nil), w.seq...), want
	}
	seqA, wantA := seqOf(1)
	seqB, wantB := seqOf(1)
	seqC, wantC := seqOf(2)
	if !reflect.DeepEqual(seqA, seqB) || !reflect.DeepEqual(wantA, wantB) {
		t.Error("the same seed gave another sequence or other data")
	}
	if reflect.DeepEqual(seqA, seqC) || reflect.DeepEqual(wantA, wantC) {
		t.Error("another seed gave the same sequence or the same data")
	}
	a, b := onePass(t, newSmall(), 1), onePass(t, newSmall(), 1)
	if a.interRows != b.interRows || a.hash.Entries != b.hash.Entries || a.hash.Builds != b.hash.Builds || a.interRows == 0 || a.hash.Entries == 0 {
		t.Errorf("exact counts differ on one seed: rows %g/%g, entries %d/%d", a.interRows, b.interRows, a.hash.Entries, b.hash.Entries)
	}
	if c := onePass(t, newSmall(), 2); c.interRows == a.interRows {
		t.Error("another seed gave the same intermediate row count")
	}
}

// The optimizer mix is a frozen suite; the seed orders the pass.
func TestSeedDrivesOptimize(t *testing.T) {
	mix := func(seed int64) (*optimizeWorkload, []string) {
		w := &optimizeWorkload{seed: seed}
		w.build()
		w.beginPass(0)
		var fps []string
		for _, i := range w.seq {
			fp, err := fingerprint(w.cells[i].q, w.cells[i].alg, "hash")
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fp)
		}
		return w, fps
	}
	wa, a := mix(1)
	wb, b := mix(1)
	_, c := mix(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave another operation sequence")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same operation sequence")
	}
	sort.Strings(a)
	sort.Strings(c)
	if !reflect.DeepEqual(a, c) {
		t.Error("another seed gave other operations, not another order")
	}
	// Exact optimizer counts on the smaller random cells (the heavy ones
	// would only slow the test down).
	built := func(w *optimizeWorkload) (n int) {
		for _, c := range w.cells[:3*randomPerSize*len(fourAlgs)] {
			_, s, err := optimize(c.q, c.alg, "hash", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			n += s.PlansBuilt
		}
		return n
	}
	if x, y := built(wa), built(wb); x != y || x == 0 {
		t.Errorf("plans built differ between two builds of the mix: %d, %d", x, y)
	}
}

// The optimizer oracle: bit-identical costs, nothing below the optimum,
// EA-Prune at the optimum and at or below the other generators.
func TestOptimizeOracle(t *testing.T) {
	w := &optimizeWorkload{}
	q := &optQuery{label: "q", optimum: 100, ceiling: 120}
	for _, c := range []struct {
		name string
		cell optCell
		cost float64
		want bool
	}{
		{"heuristic above the optimum", optCell{optQuery: q, alg: algH1, ref: 120}, 120, true},
		{"cost moved since warm-up", optCell{optQuery: q, alg: algH1, ref: 120}, 121, false},
		{"below the optimum", optCell{optQuery: q, alg: algH1, ref: 90}, 90, false},
		{"EA-Prune at the optimum", optCell{optQuery: q, alg: algEAPrune, ref: 100}, 100, true},
		{"EA-Prune above the optimum", optCell{optQuery: q, alg: algEAPrune, ref: 110}, 110, false},
		{"EA-Prune beaten", optCell{optQuery: &optQuery{label: "q", ceiling: 120}, alg: algEAPrune, ref: 130}, 130, false},
		{"EA-Prune beaten, known", optCell{optQuery: &optQuery{label: "rand16.0", ceiling: 120}, alg: algEAPrune, ref: 130}, 130, true},
		{"not a cost", optCell{optQuery: q, alg: algH1, ref: math.Inf(1)}, math.Inf(1), false},
	} {
		if got := w.verify(&c.cell, c.cost); got != c.want {
			t.Errorf("%s: verify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSeedDrivesServe(t *testing.T) {
	seqs := func(seed int64) [serveClients][]int32 {
		w := &serveWorkload{}
		if err := w.setUp(seed); err != nil {
			t.Fatal(err)
		}
		defer w.tearDown()
		return w.seqs
	}
	a, b, c := seqs(1), seqs(1), seqs(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave other Zipf draws")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same Zipf draws")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("the two clients draw the same sequence")
	}
}

// The closed-form Ex oracle must agree with the canonical tree on data it
// was not derived from.
func TestExClosedForm(t *testing.T) {
	q := tpchQuery("Ex")
	attrs := outputAttrs(q)
	for seed := int64(1); seed <= 5; seed++ {
		data := tpchGenerate(rand.New(rand.NewSource(seed)), q, "Ex", 0.2*float64(seed))
		tree, err := canonicalChecksum(q, data, attrs)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := exClosedForm(q, data, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if tree != closed {
			t.Errorf("seed %d: closed form %v, canonical tree %v", seed, closed, tree)
		}
	}
}

// BENCHMARK.json at the repo root is generated by -manifest; this keeps
// the two from drifting. The file is absent in a checkout that holds only
// the benchmark.
func TestManifestInSync(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var out bytes.Buffer
	if err := printManifest(&out); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from bench -manifest; regenerate it")
	}
}
