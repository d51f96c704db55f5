// Command eabench regenerates the tables and figures of the paper's
// evaluation section (Sec. 5) and runs the execution, service and
// large-query reports. Each report is a subcommand with its own flags:
//
//	eabench figures                          # everything, small default workload
//	eabench figures -fig 15 -queries 100     # one figure, bigger sample
//	eabench figures -queries 10000 -maxn 20  # the paper's full scale (slow!)
//	eabench exec -sf 50 -workers 0           # execute plans on all cores
//	eabench exec -query Q3 -feedback -json   # feedback loop report as JSON
//	eabench exec -phys sort -trace t.json    # sort layer, Chrome trace
//	eabench serve -sessions 8 -requests 100 -metrics-addr 127.0.0.1:9090
//	eabench large -shape star100 -pair-budget 50000
//
// figures: EA-All runs up to -maxn-exhaustive relations and EA-Prune up
// to -maxn-prune, mirroring the feasibility limits the paper reports.
//
// exec: each TPC-H query is optimized lazily (DPhyp) and eagerly
// (EA-Prune); both plans run on the columnar batch runtime over
// synthetic data scaled by -sf and are verified against the canonical
// tree, which the sequential row operators evaluate. The report shows
// wall time, rows per second and the q-error between the C_out estimate
// and the measured intermediate volume. -phys picks the physical algebra
// (hash or sort; under sort the sorts column shows performed/eliminated
// sorts). -feedback re-optimizes with measured cardinalities until the
// plan is stable and reports the q-errors of the first and final rounds.
// -trace writes Chrome trace-event JSON (Perfetto, chrome://tracing);
// -json prints the report as JSON.
//
// serve: one engine — shared worker pool, plan cache and, with
// -feedback, a shared measured-cardinality overlay — serves -sessions
// concurrent sessions replaying the TPC-H shapes -requests times each;
// every response is verified. -metrics-addr serves /metrics (Prometheus
// text) and /debug/vars (expvar) for the run and prints the bound
// address to stderr.
//
// large: 100-relation chain, star and clique shapes are optimized on the
// wide set representation with H1 and beam search, executed and
// verified. -pair-budget caps the exact csg-cmp-pair enumeration; beyond
// it a deterministic greedy fallback builds the plan. The default budget
// takes minutes; -pair-budget 50000 brings the report under one.
//
// Every subcommand takes -workers (plans and results are identical for
// every value) and -cpuprofile/-memprofile (the heap profile is taken
// post-GC at exit). Exit codes: 0 success, 1 a result that did not
// reproduce the canonical one, 2 misuse — including a profile, trace
// path or metrics address that cannot work, caught before any work runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"eagg/internal/core"
	"eagg/internal/experiments"
	"eagg/internal/obs"
	"eagg/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every subcommand shares: the experiment config its flags
// fill in, and the profile, trace and metrics settings that run sets up
// before the workload. tracePath is registered by exec only and
// metricsAddr by serve only; elsewhere they stay empty.
type env struct {
	cfg                    experiments.Config
	cpuProfile, memProfile string
	tracePath, metricsAddr string
	traceFile              *os.File
	metricsLn              net.Listener
}

// A subcommand registers its own flags on fs and returns check, which
// validates them after parsing (an error is misuse: exit 2 before any
// setup), and body, which runs the report and returns the exit code.
type subcommand func(fs *flag.FlagSet, e *env) (check func() error, body func(stdout, stderr io.Writer) int)

var subcommands = []struct {
	name, summary string
	flags         subcommand
}{
	{"figures", "reproduce Table 1, Fig. 15-18 and Table 2 of the paper's evaluation", figures},
	{"exec", "execute optimized and canonical TPC-H plans on generated data", execCmd},
	{"serve", "drive one shared query-service engine with concurrent sessions", serve},
	{"large", "optimize and execute 100-relation shapes on the wide set representation", large},
}

// run is main with its environment injected, so the exit codes are
// testable. The named return lets the deferred profile writes both see
// the final code and degrade it on write failure.
func run(args []string, stdout, stderr io.Writer) (code int) {
	var sub subcommand
	if len(args) > 0 {
		for _, s := range subcommands {
			if s.name == args[0] {
				sub = s.flags
			}
		}
	}
	if sub == nil {
		help := len(args) > 0 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help")
		if len(args) > 0 && !help {
			fmt.Fprintf(stderr, "eabench: unknown subcommand %q\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: eabench <subcommand> [flags]")
		for _, s := range subcommands {
			fmt.Fprintf(stderr, "  %-8s %s\n", s.name, s.summary)
		}
		fmt.Fprintln(stderr, `"eabench <subcommand> -h" lists its flags`)
		if help {
			return 0
		}
		return 2
	}

	fs := flag.NewFlagSet("eabench "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var e env
	fs.IntVar(&e.cfg.Workers, "workers", 1, "workers per query for the optimizer and morsel-driven plan execution (0 = GOMAXPROCS, 1 = the paper's sequential conditions); plans and results are identical for every value")
	fs.StringVar(&e.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&e.memProfile, "memprofile", "", "write a pprof heap profile (post-GC, live retention) to this file at exit")
	check, body := sub(fs, &e)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h / --help is a request, not misuse
		}
		return 2
	}
	if e.cfg.Workers < 0 {
		fmt.Fprintf(stderr, "eabench: -workers must be ≥ 0 (0 = all cores), got %d\n", e.cfg.Workers)
		return 2
	}
	if e.cfg.Workers == 0 {
		e.cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if err := check(); err != nil {
		fmt.Fprintf(stderr, "eabench: %v\n", err)
		return 2
	}

	// Setup runs after every flag check: misuse exits 2 without creating
	// files, and a profile or trace path that cannot be created, or a
	// metrics address that cannot be bound, is itself misuse — exit 2
	// before any workload runs.
	if e.cpuProfile != "" {
		f, err := os.Create(e.cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}
	if e.tracePath != "" {
		f, err := os.Create(e.tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -trace: %v\n", err)
			return 2
		}
		e.traceFile = f
		e.cfg.Trace = obs.NewTrace()
	}
	if e.metricsAddr != "" {
		ln, err := net.Listen("tcp", e.metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -metrics-addr: %v\n", err)
			return 2
		}
		e.metricsLn = ln
		fmt.Fprintf(stderr, "eabench: metrics on http://%s/metrics\n", ln.Addr())
	}
	if e.memProfile != "" {
		f, err := os.Create(e.memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
			return 2
		}
		defer func() {
			// Post-GC heap: live retention at exit, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
				code = 1
			}
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
				code = 1
			}
		}()
	}
	return body(stdout, stderr)
}

// writeTrace flushes the collected spans as Chrome trace-event JSON; it
// runs after the report so a verification failure still leaves the
// trace on disk for diagnosis.
func (e *env) writeTrace(stderr io.Writer) int {
	if e.traceFile == nil {
		return 0
	}
	err := e.cfg.Trace.WriteChrome(e.traceFile)
	if cerr := e.traceFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "eabench: -trace: %v\n", err)
		return 1
	}
	return 0
}

func addSeed(fs *flag.FlagSet, e *env) {
	fs.Int64Var(&e.cfg.Seed, "seed", 42, "workload seed")
}

func figures(fs *flag.FlagSet, e *env) (func() error, func(stdout, stderr io.Writer) int) {
	fig := fs.Int("fig", 0, "figure to reproduce (15, 16, 17, 18); 0 = all")
	table := fs.Int("table", 0, "table to reproduce (1, 2); 0 = all")
	fs.IntVar(&e.cfg.Queries, "queries", 20, "random queries per relation count (paper: 10000)")
	addSeed(fs, e)
	fs.IntVar(&e.cfg.MaxN, "maxn", 14, "largest relation count for the fast algorithms (paper: 20)")
	fs.IntVar(&e.cfg.MaxNPrune, "maxn-prune", 10, "largest relation count for EA-Prune (paper: ~13)")
	fs.IntVar(&e.cfg.MaxNExhaustive, "maxn-exhaustive", 7, "largest relation count for EA-All (paper: ~8)")
	type report struct {
		sel  *int // the flag that selects this report, by number n
		n    int
		text func() string
	}
	reports := []report{
		{table, 1, func() string { return experiments.Table1().Format() + "\n" }},
		{fig, 15, func() string { return experiments.Fig15(e.cfg).Format() + "\n" }},
		{fig, 16, func() string { return experiments.Fig16(e.cfg).Format() + "\n" }},
		{fig, 17, func() string { return experiments.Fig17(e.cfg).Format() + "\n" }},
		{fig, 18, func() string { return experiments.Fig18(e.cfg).Format() + "\n" }},
		{table, 2, func() string { return experiments.FormatTable2(experiments.Table2()) }},
	}
	var selected []report
	check := func() error {
		// Config.Defaults would replace a 0 by its own default, and a
		// negative count cannot size a workload.
		for _, f := range []struct {
			name string
			v    int
		}{{"-queries", e.cfg.Queries}, {"-maxn", e.cfg.MaxN}, {"-maxn-prune", e.cfg.MaxNPrune}, {"-maxn-exhaustive", e.cfg.MaxNExhaustive}} {
			if f.v <= 0 {
				return fmt.Errorf("%s must be > 0, got %d", f.name, f.v)
			}
		}
		for _, r := range reports {
			if *fig == 0 && *table == 0 || *r.sel == r.n {
				selected = append(selected, r)
			}
		}
		if len(selected) == 0 {
			return errors.New("nothing selected (use -fig 15|16|17|18 or -table 1|2)")
		}
		return nil
	}
	return check, func(stdout, stderr io.Writer) int {
		for _, r := range selected {
			fmt.Fprint(stdout, r.text())
		}
		return 0
	}
}

// tpchRun holds the flags exec and serve share: the synthetic TPC-H
// instance, the queries drawn from it and how the plans run.
type tpchRun struct {
	sf          float64
	query, phys string
	feedback    bool
	names       []string
}

// addTPCH registers the flags exec and serve share; feedbackUsage says
// what -feedback does in the caller's report.
func addTPCH(fs *flag.FlagSet, e *env, feedbackUsage string) *tpchRun {
	t := &tpchRun{}
	fs.Float64Var(&t.sf, "sf", 10, "scale factor multiplying the base synthetic instance sizes (must be > 0)")
	fs.StringVar(&t.query, "query", "", "comma-separated TPC-H queries ("+strings.Join(tpchNames(), ", ")+"); empty = all")
	fs.StringVar(&t.phys, "phys", "", "physical algebra — hash (default) or sort (sort-merge join/aggregation; the sorts column reports performed/eliminated)")
	fs.BoolVar(&t.feedback, "feedback", false, feedbackUsage)
	addSeed(fs, e)
	return t
}

// check validates the shared flags, filling e.cfg.Phys and t.names.
func (t *tpchRun) check(e *env) error {
	var err error
	if e.cfg.Phys, err = core.ParsePhysMode(t.phys); err != nil {
		return fmt.Errorf("-phys: %v", err)
	}
	if !(t.sf > 0) { // rejects NaN too, unlike t.sf <= 0
		return fmt.Errorf("-sf must be > 0, got %g", t.sf)
	}
	t.names, err = splitNames("query", t.query, tpchNames())
	return err
}

func tpchNames() []string {
	return slices.Sorted(maps.Keys(tpch.Queries()))
}

// splitNames splits a comma-separated flag value and rejects any name
// not in known.
func splitNames(flagName, value string, known []string) ([]string, error) {
	if value == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(value, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(known, n) {
			return nil, fmt.Errorf("unknown -%s %q (known: %s)", flagName, n, strings.Join(known, ", "))
		}
		names = append(names, n)
	}
	return names, nil
}

// verdict exits 1, naming what failed, when a report holds a result that
// did not reproduce the canonical one.
func verdict(stderr io.Writer, rep interface{ AllMatch() bool }, what string) int {
	if rep.AllMatch() {
		return 0
	}
	fmt.Fprintf(stderr, "eabench: some %s did not reproduce the canonical result\n", what)
	return 1
}

func execCmd(fs *flag.FlagSet, e *env) (func() error, func(stdout, stderr io.Writer) int) {
	t := addTPCH(fs, e, "close the cardinality feedback loop (optimize → execute → re-optimize with measured cardinalities until the plan is stable) and report q-error before/after")
	fs.StringVar(&e.tracePath, "trace", "", "write a Chrome trace-event JSON file of the run (optimizer phases, executor operators; open in Perfetto or chrome://tracing)")
	jsonOut := fs.Bool("json", false, "print the report as machine-readable JSON instead of the aligned table (composes with -feedback)")
	return func() error { return t.check(e) }, func(stdout, stderr io.Writer) int {
		var rep interface {
			Format() string
			WriteJSON(io.Writer) error
			AllMatch() bool
		}
		what := "optimized plans"
		if t.feedback {
			rep, what = experiments.FeedbackEval(e.cfg, t.sf, t.names), "re-optimized plans"
		} else {
			rep = experiments.ExecEval(e.cfg, t.sf, t.names)
		}
		if *jsonOut {
			if err := rep.WriteJSON(stdout); err != nil {
				fmt.Fprintf(stderr, "eabench: -json: %v\n", err)
				return 1
			}
		} else {
			fmt.Fprint(stdout, rep.Format())
		}
		if c := e.writeTrace(stderr); c != 0 {
			return c
		}
		return verdict(stderr, rep, what)
	}
}

func serve(fs *flag.FlagSet, e *env) (func() error, func(stdout, stderr io.Writer) int) {
	t := addTPCH(fs, e, "enable the engine's shared cardinality feedback overlay")
	sessions := fs.Int("sessions", 4, "concurrent sessions driving the engine (must be > 0)")
	requests := fs.Int("requests", 20, "requests served per query shape across all sessions (must be > 0)")
	fs.StringVar(&e.metricsAddr, "metrics-addr", "", "serve the engine's metrics on this address for the duration of the run — /metrics (Prometheus text) and /debug/vars (expvar); the bound address is printed to stderr")
	check := func() error {
		if *sessions <= 0 || *requests <= 0 {
			return fmt.Errorf("-sessions and -requests must be > 0, got %d/%d", *sessions, *requests)
		}
		return t.check(e)
	}
	return check, func(stdout, stderr io.Writer) int {
		rep := experiments.ServeEval(e.cfg, t.sf, t.names, *sessions, *requests, t.feedback, e.metricsLn)
		fmt.Fprint(stdout, rep.Format())
		return verdict(stderr, rep, "served responses")
	}
}

func large(fs *flag.FlagSet, e *env) (func() error, func(stdout, stderr io.Writer) int) {
	shape := fs.String("shape", "", "comma-separated shapes ("+strings.Join(experiments.LargeShapeNames(), ", ")+"); empty = all")
	pairBudget := fs.Int("pair-budget", 0, "csg-cmp-pair enumeration budget (0 = the optimizer default; exceeding it switches to the deterministic greedy fallback)")
	var shapes []string
	check := func() error {
		if *pairBudget < 0 {
			return fmt.Errorf("-pair-budget must be ≥ 0, got %d", *pairBudget)
		}
		var err error
		shapes, err = splitNames("shape", *shape, experiments.LargeShapeNames())
		return err
	}
	return check, func(stdout, stderr io.Writer) int {
		rep := experiments.LargeEval(e.cfg, shapes, *pairBudget)
		fmt.Fprint(stdout, rep.Format())
		return verdict(stderr, rep, "large-query plans")
	}
}
