package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// results is one complete set of runs: every workload, untraced and
// traced, on one or more seeds. bench/baseline holds committed ones.
type results struct {
	Meta      meta                        `json:"meta"`
	Workloads map[string]*workloadResults `json:"workloads"`
	// Claim is always null: the benchmark measures, and a PR that claims
	// a gain does so in its own description against these numbers.
	Claim *string `json:"claim"`
}

type meta struct {
	Date       string  `json:"date"`
	Machine    string  `json:"machine"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seeds      []int64 `json:"seeds"`
	Seconds    float64 `json:"seconds"`
}

type workloadResults struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// SingleClient marks workloads whose exact counts repeat per seed.
	SingleClient bool               `json:"single_client"`
	EndToEnd     map[string]*series `json:"end_to_end"`
	PerLayer     map[string]*series `json:"per_layer"`
	Layers       []layerRow         `json:"layers"`
}

// series is one metric over the set's runs, in seed order.
type series struct {
	Unit   string     `json:"unit"`
	Values []*float64 `json:"values"`
}

// numbers returns the non-null values.
func (s *series) numbers() []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, v := range s.Values {
		if v != nil {
			out = append(out, *v)
		}
	}
	return out
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// runAll runs every workload untraced and traced, each run in a fresh
// child process so no heap, cache or scheduler state carries over.
func runAll(seed int64, seconds float64, runs int, outDir, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := &results{
		Meta: meta{
			Date: time.Now().UTC().Format(time.RFC3339), Machine: runtime.GOOS + "/" + runtime.GOARCH,
			CPUs: runtime.NumCPU(), GOMAXPROCS: min(runtime.NumCPU(), 2), GoVersion: runtime.Version(),
			GitRev: gitRev(), Seconds: seconds,
		},
		Workloads: map[string]*workloadResults{},
	}
	for r := 0; r < runs; r++ {
		res.Meta.Seeds = append(res.Meta.Seeds, seed+int64(r))
	}
	for _, spec := range workloads {
		wr := &workloadResults{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		res.Workloads[spec.Name] = wr
		for _, s := range res.Meta.Seeds {
			for _, traced := range []bool{false, true} {
				det, err := runChild(self, spec.Name, s, seconds, traced, outDir)
				if err != nil {
					return err
				}
				into := wr.EndToEnd
				if traced {
					into = wr.PerLayer
					if wr.Layers == nil {
						wr.Layers = det.Layers
					}
				}
				for name, mv := range det.Metrics {
					if into[name] == nil {
						into[name] = &series{Unit: mv.Unit}
					}
					into[name].Values = append(into[name].Values, mv.Value)
				}
				wr.Attempted += det.Attempted
				wr.Failed += det.Failed
			}
		}
		wr.SingleClient = spec.New().clients() == 1
	}
	if outFile != "" {
		if err := writeJSON(outFile, res); err != nil {
			return err
		}
	}
	printSummary(os.Stdout, res)
	return nil
}

func runChild(self, workload string, seed int64, seconds float64, traced bool, outDir string) (*runDetail, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-outdir", outDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, t, err)
	}
	b, err := os.ReadFile(detailPath(outDir, workload, traced))
	if err != nil {
		return nil, err
	}
	det := &runDetail{}
	return det, json.Unmarshal(b, det)
}

// printSummary prints every metric of every workload by name and unit
// (the median over the set's runs), then the summary object.
func printSummary(w io.Writer, res *results) {
	for _, spec := range workloads {
		wr := res.Workloads[spec.Name]
		fmt.Fprintf(w, "\n%s: %d operations, %d failed (fail_share %g)\n", spec.Name, wr.Attempted, wr.Failed,
			float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, group := range []struct {
			specs  []metricSpec
			series map[string]*series
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, s := range group.specs {
				v := "null"
				if n := group.series[s.Name].numbers(); len(n) > 0 {
					v = fmt.Sprintf("%.6g", median(n))
				}
				fmt.Fprintf(w, "  %-34s %14s %s\n", s.Name, v, s.Unit)
			}
		}
	}
	summary := struct {
		Meta       meta     `json:"meta"`
		Workloads  []string `json:"workloads"`
		Attempted  int      `json:"attempted"`
		Failed     int      `json:"failed"`
		PeakRSSMax float64  `json:"peak_rss_mb_max"`
		Claim      *string  `json:"claim"`
	}{Meta: res.Meta}
	for _, spec := range workloads {
		wr := res.Workloads[spec.Name]
		summary.Workloads = append(summary.Workloads, spec.Name)
		summary.Attempted += wr.Attempted
		summary.Failed += wr.Failed
		for _, v := range wr.EndToEnd["peak_rss_mb"].numbers() {
			summary.PeakRSSMax = max(summary.PeakRSSMax, v)
		}
	}
	b, _ := json.MarshalIndent(summary, "", " ") // plain data: cannot fail
	fmt.Fprintf(w, "\n%s\n", b)
}

// printManifest prints BENCHMARK.json from the tables this package
// measures by, so the two cannot drift apart.
func printManifest(w io.Writer) error {
	type entry map[string]any
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, entry{"name": s.Name, "why": s.Why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, entry{"name": s.Name, "unit": s.Unit, "better": s.Better, "bound": s.DriverBound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, entry{"name": s.Name, "unit": s.Unit, "better": s.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
