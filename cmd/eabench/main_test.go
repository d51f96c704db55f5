package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestFlagHygiene pins the misuse conventions: every input exits 2 with
// a pointed message. A flag outside its subcommand is rejected by the
// flag package itself; the remaining checks are the values a subcommand
// validates before any work runs.
func TestFlagHygiene(t *testing.T) {
	const undefined = "flag provided but not defined: "
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"phys without exec", []string{"figures", "-phys", "sort"}, undefined + "-phys"},
		{"unknown phys value", []string{"exec", "-phys", "bogus"}, "unknown physical mode"},
		{"auto phys mode is gone", []string{"exec", "-phys", "auto"}, `unknown physical mode "auto" (want hash or sort)`},
		{"runtime flag is gone", []string{"exec", "-runtime", "row"}, undefined + "-runtime"},
		{"feedback without exec", []string{"figures", "-feedback"}, undefined + "-feedback"},
		{"negative workers", []string{"figures", "-workers", "-2"}, "-workers must be"},
		{"bad sf", []string{"exec", "-sf", "0"}, "-sf must be > 0"},
		{"nothing selected", []string{"figures", "-fig", "3"}, "nothing selected"},
		{"negative queries", []string{"figures", "-queries", "-1"}, "-queries must be > 0"},
		{"zero queries", []string{"figures", "-queries", "0"}, "-queries must be > 0"},
		{"negative maxn", []string{"figures", "-maxn", "-1"}, "-maxn must be > 0"},
		{"negative maxn-prune", []string{"figures", "-maxn-prune", "-3"}, "-maxn-prune must be > 0"},
		{"negative maxn-exhaustive", []string{"figures", "-maxn-exhaustive", "-1"}, "-maxn-exhaustive must be > 0"},
		{"serve with exec", []string{"serve", "-exec"}, undefined + "-exec"},
		{"sessions without serve", []string{"figures", "-sessions", "4"}, undefined + "-sessions"},
		{"requests without serve", []string{"figures", "-requests", "10"}, undefined + "-requests"},
		{"negative sessions", []string{"serve", "-sessions", "-1"}, "must be > 0"},
		{"zero sessions", []string{"serve", "-sessions", "0"}, "must be > 0"},
		{"negative requests", []string{"serve", "-requests", "-5"}, "must be > 0"},
		{"bad serve sf", []string{"serve", "-sf", "0"}, "-sf must be > 0"},
		{"large with exec", []string{"large", "-exec"}, undefined + "-exec"},
		{"large with serve", []string{"large", "-serve"}, undefined + "-serve"},
		{"shape without large", []string{"figures", "-shape", "star100"}, undefined + "-shape"},
		{"pair budget without large", []string{"figures", "-pair-budget", "1000"}, undefined + "-pair-budget"},
		{"negative pair budget", []string{"large", "-pair-budget", "-1"}, "-pair-budget must be"},
		{"unknown shape", []string{"large", "-shape", "ring100"}, "unknown -shape"},
		{"large with feedback", []string{"large", "-feedback"}, undefined + "-feedback"},
		{"large with query", []string{"large", "-query", "Q3"}, undefined + "-query"},
		{"unwritable cpuprofile", []string{"figures", "-table", "1", "-cpuprofile", "no-such-dir/cpu.prof"}, "-cpuprofile"},
		{"unwritable memprofile", []string{"figures", "-table", "1", "-memprofile", "no-such-dir/mem.prof"}, "-memprofile"},
		{"trace without exec", []string{"figures", "-trace", "out.json"}, undefined + "-trace"},
		{"trace with serve", []string{"serve", "-trace", "out.json"}, undefined + "-trace"},
		{"unwritable trace", []string{"exec", "-query", "Q3", "-trace", "no-such-dir/out.json"}, "-trace"},
		{"json without exec", []string{"figures", "-json"}, undefined + "-json"},
		{"json with serve", []string{"serve", "-json"}, undefined + "-json"},
		{"metrics-addr without serve", []string{"figures", "-metrics-addr", "127.0.0.1:0"}, undefined + "-metrics-addr"},
		{"metrics-addr with exec", []string{"exec", "-metrics-addr", "127.0.0.1:0"}, undefined + "-metrics-addr"},
		{"unbindable metrics-addr", []string{"serve", "-metrics-addr", "256.0.0.1:1"}, "-metrics-addr"},
		{"unknown exec query", []string{"exec", "-query", "Q7", "-sf", "0.1"}, `unknown -query "Q7" (known: Ex, Q10, Q3, Q5)`},
		{"unknown serve query", []string{"serve", "-query", "Q3,Q9"}, `unknown -query "Q9"`},
		{"no subcommand", nil, "usage: eabench <subcommand>"},
		{"old mode flag", []string{"-exec"}, `unknown subcommand "-exec"`},
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

// TestExecPhysRuns drives the exec subcommand end to end per physical mode on
// the smallest instance: exit 0 (all plans reproduce the canonical
// result) and, for the sort mode, a sorts column with eliminated sorts
// somewhere in the report.
func TestExecPhysRuns(t *testing.T) {
	for _, mode := range []string{"hash", "sort"} {
		var out, errOut bytes.Buffer
		code := run([]string{"exec", "-phys", mode, "-sf", "0.2", "-query", "Q3"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-phys %s: exit %d\nstderr: %s\nstdout: %s", mode, code, errOut.String(), out.String())
		}
		if !strings.Contains(out.String(), "phys "+mode) {
			t.Fatalf("-phys %s: report header missing the mode\n%s", mode, out.String())
		}
		if mode != "hash" && !strings.Contains(out.String(), "/") {
			t.Fatalf("-phys %s: report has no sorts column values\n%s", mode, out.String())
		}
	}
}

// TestExecRuntimeRuns pins which runtime the CLI's executing subcommands
// run: exec on the smallest instance exits 0 (the plans reproduce the canonical
// result, which the sequential row operators evaluate) with the hash-table
// telemetry columns populated — only the batch runtime's tables report —
// and serve answers from the same runtime.
func TestExecRuntimeRuns(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"exec", "-sf", "0.2", "-query", "Q3", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("-exec: exit %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	var rep struct {
		Rows []struct {
			Plan string
			Hash struct{ Builds int64 }
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-exec -json: %v\n%s", err, out.String())
	}
	if len(rep.Rows) == 0 {
		t.Fatalf("-exec -json: no rows\n%s", out.String())
	}
	for _, row := range rep.Rows {
		if row.Hash.Builds == 0 {
			t.Errorf("plan %s built no hash table: -exec did not run the batch runtime", row.Plan)
		}
	}
	out.Reset()
	errOut.Reset()
	args := []string{"serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
}

// TestServeRuns drives the serve subcommand end to end on the smallest
// instance: exit 0 (every served response reproduced the canonical
// result) and a report with the throughput header, per-shape rows and
// the engine counters. -feedback composes with serve.
func TestServeRuns(t *testing.T) {
	for _, extra := range [][]string{nil, {"-feedback"}} {
		args := append([]string{"serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4"}, extra...)
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s\nstdout: %s", args, code, errOut.String(), out.String())
		}
		for _, want := range []string{"Service throughput", "2 sessions", "Q3", "engine: cache"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%v: report missing %q\n%s", args, want, out.String())
			}
		}
	}
}

// TestLargeRuns drives the large subcommand end to end on the cheapest shape:
// exit 0 (both plans reproduce the canonical result) and a report with
// the wide-representation header and one row per algorithm. clique100 is
// the only shape that optimizes exactly in well under a second — its
// hyperedges admit one buildable set per level — so the heavier chains
// and stars are left to the dedicated large-query tests.
func TestLargeRuns(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"large", "-shape", "clique100"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("-large: exit %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	for _, want := range []string{"wide-representation", "clique100", "H1", "Beam(4)", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-large: report missing %q\n%s", want, out.String())
		}
	}
}

// TestProfileFlags drives a run with both profile flags on the smallest
// workload: exit 0 and non-empty pprof files. Also pins that a bad
// profile path exits 2 before any workload runs (the cases in
// TestFlagHygiene cover the message; this covers "no partial output").
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	var out, errOut bytes.Buffer
	args := []string{"figures", "-table", "1", "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// Misuse (a bad flag value) must not leave profile files behind:
	// validation runs before profile setup.
	bad := dir + "/never.prof"
	out.Reset()
	errOut.Reset()
	if code := run([]string{"exec", "-cpuprofile", bad, "-sf", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("misuse with -cpuprofile: want exit 2, got %d", code)
	}
	if _, err := os.Stat(bad); err == nil {
		t.Fatalf("misuse created profile file %s", bad)
	}
}

// TestHelpExitsZero pins that -h is a request, not misuse, at the top
// level and per subcommand. The top-level usage, which an unknown word
// such as the old -exec form prints with exit 2, lists the subcommands.
func TestHelpExitsZero(t *testing.T) {
	subcommands := []string{"figures", "exec", "serve", "large"}
	cases := []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"-h"}, 0, subcommands},
		{[]string{"exec", "-h"}, 0, []string{"-phys", "-trace", "-workers"}},
		{[]string{"-exec"}, 2, subcommands},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.code {
			t.Errorf("%v: want exit %d, got %d", tc.args, tc.code, code)
		}
		for _, want := range tc.want {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("%v: usage output missing %q\n%s", tc.args, want, errOut.String())
			}
		}
	}
}

// TestTraceMode drives exec -trace end to end: exit 0 and a valid
// Chrome trace-event JSON file with the span categories of the run —
// per-query spans, optimizer phases with dp-levels, executor operators.
// -trace also composes with -feedback (round spans appear).
func TestTraceMode(t *testing.T) {
	type chromeTrace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	load := func(path string) chromeTrace {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tr chromeTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		return tr
	}

	dir := t.TempDir()
	path := dir + "/trace.json"
	var out, errOut bytes.Buffer
	args := []string{"exec", "-query", "Q3", "-sf", "0.2", "-trace", path}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	tr := load(path)
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := map[string]int{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
		cats[e.Cat]++
	}
	for _, want := range []string{"query", "optimize", "dp-level", "op"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, cats)
		}
	}

	fbPath := dir + "/feedback.json"
	out.Reset()
	errOut.Reset()
	args = []string{"exec", "-feedback", "-query", "Q3", "-sf", "0.2", "-trace", fbPath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	rounds := 0
	for _, e := range load(fbPath).TraceEvents {
		if e.Cat == "feedback" {
			rounds++
		}
	}
	if rounds == 0 {
		t.Error("feedback trace has no round spans")
	}
}

// TestJSONMode drives exec -json (and the -feedback composition): exit
// 0 and parseable JSON with the mode marker, string-rendered enums and
// the verification verdict.
func TestJSONMode(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"exec", "-query", "Q3", "-sf", "0.2", "-json"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	var execRep struct {
		Mode     string `json:"mode"`
		Phys     string `json:"phys"`
		AllMatch bool   `json:"all_match"`
		Rows     []struct {
			Query string
			Plan  string
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &execRep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if execRep.Mode != "exec" || execRep.Phys != "hash" {
		t.Errorf("unexpected header: %+v", execRep)
	}
	if !execRep.AllMatch || len(execRep.Rows) != 2 {
		t.Errorf("want all_match with 2 rows, got %+v", execRep)
	}

	out.Reset()
	errOut.Reset()
	args = []string{"exec", "-feedback", "-query", "Q3", "-sf", "0.2", "-json"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	var fbRep struct {
		Mode     string `json:"mode"`
		AllMatch bool   `json:"all_match"`
	}
	if err := json.Unmarshal(out.Bytes(), &fbRep); err != nil {
		t.Fatalf("-feedback -json output is not valid JSON: %v", err)
	}
	if fbRep.Mode != "feedback" || !fbRep.AllMatch {
		t.Errorf("unexpected feedback report: %+v", fbRep)
	}
}

// TestServeMetricsAddr drives serve -metrics-addr end to end: the bound
// address goes to stderr before the run, and the report records that the
// endpoint was served. (Live scraping under concurrency is covered by
// the service package's endpoint test.)
func TestServeMetricsAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4", "-metrics-addr", "127.0.0.1:0"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "metrics on http://127.0.0.1:") {
		t.Errorf("stderr does not announce the bound address: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "metrics: served on http://127.0.0.1:") {
		t.Errorf("report does not record the metrics endpoint:\n%s", out.String())
	}
}
