package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two sets of runs. worse is how far
// b's median is on the wrong side of a's, as a share of a's median
// (negative when b is better). A run-to-run spread wider than the bound,
// on either side, means the runs cannot tell: unresolved, not unchanged.
// A single run per side has no spread to check.
func judge(spec metricSpec, a, b []float64) (verdict string, worse, widest float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if spec.Better == "higher" {
		worse = -worse
	}
	for _, v := range [][]float64{a, b} {
		if s := spread(v); !math.IsNaN(s) {
			widest = max(widest, s)
		}
	}
	switch {
	case widest > spec.Bound:
		return verdictUnresolved, worse, widest
	case worse > spec.Bound:
		return verdictRegressed, worse, widest
	}
	return verdictOK, worse, widest
}

// exactDiffers reports whether a count that must repeat exactly differs
// between two sets run on the same seeds.
func exactDiffers(a, b *series) bool {
	if a == nil || b == nil || len(a.Values) != len(b.Values) {
		return true
	}
	for i := range a.Values {
		x, y := a.Values[i], b.Values[i]
		if (x == nil) != (y == nil) || (x != nil && *x != *y) {
			return true
		}
	}
	return false
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &results{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errRegressed makes -compare exit non-zero.
var errRegressed = fmt.Errorf("regressed")

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if compareResults(w, a, b) {
		return errRegressed
	}
	return nil
}

// compareResults prints one row per (workload, end-to-end metric) and
// flags exact counts that moved. It reports whether anything regressed:
// an end-to-end metric beyond its bound, a failed operation, or a
// plan-quality count that moved.
func compareResults(w io.Writer, a, b *results) (regressed bool) {
	sameSeeds := fmt.Sprint(a.Meta.Seeds) == fmt.Sprint(b.Meta.Seeds)
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, spec := range workloads {
		wa, wb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", spec.Name)
			regressed = true
			continue
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "%-18s %-18s %d of %d operations failed: %s\n", spec.Name, "fail_share", wb.Failed, wb.Attempted, verdictRegressed)
			regressed = true
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil || len(sa.numbers()) == 0 || len(sb.numbers()) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing: %s\n", spec.Name, m.Name, verdictRegressed)
				regressed = true
				continue
			}
			verdict, worse, widest := judge(m, sa.numbers(), sb.numbers())
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-18s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n", spec.Name, m.Name,
				median(sa.numbers()), median(sb.numbers()), 100*worse, 100*widest, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			pa, pb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			switch {
			case m.Quality:
				// The optimizer mix is the same on every seed.
				if len(pa.numbers()) == 0 && len(pb.numbers()) == 0 || median(pa.numbers()) == median(pb.numbers()) {
					continue
				}
				regressed = true
				fmt.Fprintf(w, "%-18s %-34s plan quality moved: a %v, b %v: %s\n", spec.Name, m.Name, pa.numbers(), pb.numbers(), verdictRegressed)
			case m.Exact && sameSeeds && wa.SingleClient && exactDiffers(pa, pb):
				// Exact counts repeat only per seed, and only without interleaving clients.
				fmt.Fprintf(w, "%-18s %-34s exact count differs: a %v, b %v\n", spec.Name, m.Name, pa.numbers(), pb.numbers())
			}
		}
	}
	return regressed
}
