package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestFlagHygiene pins the misuse conventions: unknown -phys values and
// mode flags without -exec exit 2 with a pointed message, matching the
// -feedback convention.
func TestFlagHygiene(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"phys without exec", []string{"-phys", "sort"}, "-phys requires -exec"},
		{"unknown phys value", []string{"-exec", "-phys", "bogus"}, "unknown physical mode"},
		{"runtime flag is gone", []string{"-exec", "-runtime", "row"}, "flag provided but not defined: -runtime"},
		{"feedback without exec", []string{"-feedback"}, "-feedback requires -exec"},
		{"negative workers", []string{"-workers", "-2"}, "-workers must be"},
		{"bad sf", []string{"-exec", "-sf", "0"}, "-sf must be > 0"},
		{"nothing selected", []string{"-fig", "3"}, "nothing selected"},
		{"serve with exec", []string{"-serve", "-exec"}, "mutually exclusive"},
		{"sessions without serve", []string{"-sessions", "4"}, "-sessions and -requests require -serve"},
		{"requests without serve", []string{"-requests", "10"}, "-sessions and -requests require -serve"},
		{"negative sessions", []string{"-serve", "-sessions", "-1"}, "must be > 0"},
		{"negative requests", []string{"-serve", "-requests", "-5"}, "must be > 0"},
		{"bad serve sf", []string{"-serve", "-sf", "0"}, "-sf must be > 0"},
		{"large with exec", []string{"-large", "-exec"}, "-large is mutually exclusive"},
		{"large with serve", []string{"-large", "-serve"}, "-large is mutually exclusive"},
		{"shape without large", []string{"-shape", "star100"}, "-shape and -pair-budget require -large"},
		{"pair budget without large", []string{"-pair-budget", "1000"}, "-shape and -pair-budget require -large"},
		{"negative pair budget", []string{"-large", "-pair-budget", "-1"}, "-pair-budget must be"},
		{"unknown shape", []string{"-large", "-shape", "ring100"}, "unknown -shape"},
		{"large with feedback", []string{"-large", "-feedback"}, "-feedback requires -exec"},
		{"large with query", []string{"-large", "-query", "Q3"}, "use -shape with -large"},
		{"unwritable cpuprofile", []string{"-table", "1", "-cpuprofile", "no-such-dir/cpu.prof"}, "-cpuprofile"},
		{"unwritable memprofile", []string{"-table", "1", "-memprofile", "no-such-dir/mem.prof"}, "-memprofile"},
		{"trace without exec", []string{"-trace", "out.json"}, "-trace requires -exec"},
		{"trace with serve", []string{"-serve", "-trace", "out.json"}, "-trace requires -exec"},
		{"unwritable trace", []string{"-exec", "-query", "Q3", "-trace", "no-such-dir/out.json"}, "-trace"},
		{"json without exec", []string{"-json"}, "-json requires -exec"},
		{"json with serve", []string{"-serve", "-json"}, "-json requires -exec"},
		{"metrics-addr without serve", []string{"-metrics-addr", "127.0.0.1:0"}, "-metrics-addr requires -serve"},
		{"metrics-addr with exec", []string{"-exec", "-metrics-addr", "127.0.0.1:0"}, "-metrics-addr requires -serve"},
		{"unbindable metrics-addr", []string{"-serve", "-metrics-addr", "256.0.0.1:1"}, "-metrics-addr"},
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

// TestExecPhysRuns drives the -exec mode end to end per physical mode on
// the smallest instance: exit 0 (all plans reproduce the canonical
// result) and, for the sort-based modes, a sorts column with eliminated
// sorts somewhere in the report.
func TestExecPhysRuns(t *testing.T) {
	for _, mode := range []string{"hash", "sort", "auto"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-exec", "-phys", mode, "-sf", "0.2", "-query", "Q3"}, &out, &errOut)
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

// TestExecRuntimeRuns pins which runtime the CLI's executing modes run:
// -exec on the smallest instance exits 0 (the plans reproduce the canonical
// result, which the sequential row operators evaluate) with the hash-table
// telemetry columns populated — only the batch runtime's tables report —
// and -serve answers from the same runtime.
func TestExecRuntimeRuns(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exec", "-sf", "0.2", "-query", "Q3", "-json"}, &out, &errOut)
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
	args := []string{"-serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, errOut.String())
	}
}

// TestServeRuns drives the -serve mode end to end on the smallest
// instance: exit 0 (every served response reproduced the canonical
// result) and a report with the throughput header, per-shape rows and
// the engine counters. -feedback composes with -serve.
func TestServeRuns(t *testing.T) {
	for _, extra := range [][]string{nil, {"-feedback"}} {
		args := append([]string{"-serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4"}, extra...)
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

// TestLargeRuns drives the -large mode end to end on the cheapest shape:
// exit 0 (both plans reproduce the canonical result) and a report with
// the wide-representation header and one row per algorithm. clique100 is
// the only shape that optimizes exactly in well under a second — its
// hyperedges admit one buildable set per level — so the heavier chains
// and stars are left to the dedicated large-query tests.
func TestLargeRuns(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-large", "-shape", "clique100"}, &out, &errOut)
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
	args := []string{"-table", "1", "-cpuprofile", cpu, "-memprofile", mem}
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
	// Misuse (a mode-flag error) must not leave profile files behind:
	// validation runs before profile setup.
	bad := dir + "/never.prof"
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-phys", "sort", "-cpuprofile", bad}, &out, &errOut); code != 2 {
		t.Fatalf("misuse with -cpuprofile: want exit 2, got %d", code)
	}
	if _, err := os.Stat(bad); err == nil {
		t.Fatalf("misuse created profile file %s", bad)
	}
}

// TestHelpExitsZero pins that -h is a request, not misuse.
func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h: want exit 0, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-phys") {
		t.Fatal("usage output missing -phys")
	}
}

// TestTraceMode drives -exec -trace end to end: exit 0 and a valid
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
	args := []string{"-exec", "-query", "Q3", "-sf", "0.2", "-trace", path}
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
	args = []string{"-exec", "-feedback", "-query", "Q3", "-sf", "0.2", "-trace", fbPath}
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

// TestJSONMode drives -exec -json (and the -feedback composition): exit
// 0 and parseable JSON with the mode marker, string-rendered enums and
// the verification verdict.
func TestJSONMode(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-exec", "-query", "Q3", "-sf", "0.2", "-json"}
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
	args = []string{"-exec", "-feedback", "-query", "Q3", "-sf", "0.2", "-json"}
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

// TestServeMetricsAddr drives -serve -metrics-addr end to end: the bound
// address goes to stderr before the run, and the report records that the
// endpoint was served. (Live scraping under concurrency is covered by
// the service package's endpoint test.)
func TestServeMetricsAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-serve", "-sf", "0.2", "-query", "Q3", "-sessions", "2", "-requests", "4", "-metrics-addr", "127.0.0.1:0"}
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
