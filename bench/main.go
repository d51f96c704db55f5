// Command bench is the repo's benchmark: four workloads, end-to-end and
// per-layer metrics, a traced run and a regression gate. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run; the last line of stdout is the result
//	bench [-seed N] [-runs R] [-o FILE]               every workload, untraced and traced, each in a fresh child process
//	bench -compare A.json B.json                      apply each metric's bound; exit 1 on a regression
//	bench -manifest                                   print BENCHMARK.json from the metric tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures. The driver makes 92 runs inside 3420 s, set-ups and two builds
// included, which leaves 36 s a run; 25 s of phase plus the set-ups keep a
// tenth of that in reserve.
const defaultSeconds = 25

// Sizes are tpch.ExecutionScaleAt factors. At 1000 Q3 has a 400k-row
// lineitem and Ex 300k suppliers and 600k customers, 2.8M base rows in all
// four shapes, so the working set is far out of cache; the sort workload
// runs at 500.
var workloads = []workloadSpec{
	{
		Name: "tpch_hash_large",
		Why:  "hash join and aggregation kernels plus result conversion do nearly all the work; optimizer and service do almost none",
		New:  newTPCH("hash", 1000, hashMix),
	},
	{
		Name: "tpch_sort_large",
		Why:  "same layers through the other code path (sort-merge join, sort-group, row bridging); a hash-table gain should not move it",
		New:  newTPCH("sort", 500, sortMix),
	},
	{
		Name: "optimize_cold",
		Why:  "the paper's own experiment: plan generators on random, TPC-H, dense and wide queries; core does all the work, no data is touched",
		New:  newOptimize,
	},
	{
		Name: "serve_mixed_small",
		Why:  "per-request fixed costs dominate: 2 clients, 512 tiny Zipf-drawn shapes over a 256-entry plan cache, kernels do almost nothing",
		New:  newServe,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	runs     int
	outFile  string
	compare  bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of data generation, query population, shuffles and Zipf draws")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, layer table, Chrome trace")
	flag.StringVar(&o.outDir, "outdir", "out", "where run details and traces are written")
	flag.IntVar(&o.runs, "runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.outFile, "o", "", "all-workloads mode: write the results JSON here")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: bench -compare A.json B.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest:
		return printManifest(os.Stdout)
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case o.seconds <= 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1):
		return fmt.Errorf("-seconds and -runs must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o.seed, o.seconds, o.runs, o.outDir, o.outFile)
	}
	spec, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	det, err := runWorkload(spec, o.seed, o.seconds, o.trace == 1, o.outDir)
	if err != nil {
		return err
	}
	if err := writeJSON(detailPath(o.outDir, spec.Name, o.trace == 1), det); err != nil {
		return err
	}
	printDetail(os.Stderr, det)
	return json.NewEncoder(os.Stdout).Encode(resultLine(det))
}

func detailPath(outDir, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run_%s_trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the driver's contract: exactly these four keys, every
// metric a number. A layer the workload does not exercise reads 0 here
// and null in the run's detail file.
func resultLine(d *runDetail) map[string]any {
	metrics := make(map[string]any, len(d.Metrics))
	for name, mv := range d.Metrics {
		v := 0.0
		if mv.Value != nil {
			v = *mv.Value
		}
		metrics[name] = map[string]any{"value": v, "unit": mv.Unit}
	}
	return map[string]any{"correct": d.Correct, "attempted": d.Attempted, "failed": d.Failed, "metrics": metrics}
}

// printDetail prints every metric of the run by name and unit.
func printDetail(w *os.File, d *runDetail) {
	fmt.Fprintf(w, "%s  seed %d  trace %v  %d operations in %d passes, %d failed\n",
		d.Workload, d.Seed, d.Trace, d.Samples, d.Passes, d.Failed)
	names := make([]string, 0, len(d.Metrics))
	for n := range d.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := d.Metrics[n]
		if mv.Value == nil {
			fmt.Fprintf(w, "  %-34s %14s %s\n", n, "null", mv.Unit)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, *mv.Value, mv.Unit)
		}
	}
	for _, l := range d.Layers {
		fmt.Fprintf(w, "  layer %-28s %12.4f ms/op %6.1f%%\n", l.Layer, l.SelfMSPerOp, 100*l.ShareOfRequest)
	}
}

// writeTraceFile writes the first requests of the traced phase in Chrome
// trace-event format.
func writeTraceFile(outDir, workload string, ph *phase) error {
	f, err := os.Create(filepath.Join(outDir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	if err := writeChrome(f, ph.kept, ph.keptOffsets); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
