package main

import "time"

// timeEach calls fn for every query, round after round, until the budget
// is spent (at least one round), and returns the median call in
// nanoseconds. ok is false when fn fails, which makes the probe null.
func timeEach(qs []*Query, budget time.Duration, fn func(*Query) error) (medianNS float64, ok bool) {
	var samples []float64
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < budget {
		for _, q := range qs {
			t0 := time.Now()
			if err := fn(q); err != nil {
				return 0, false
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return median(samples), true
}

// probeOptimizer times the optimizer's entry points directly on the
// workload's own queries: the fingerprint every service request pays,
// conflict detection, each plan generator, and EA-Prune on one worker
// against the default parallel driver.
func probeOptimizer(m metricSet, qs []*Query, phys string, budget time.Duration) {
	slice := budget / 7
	if ns, ok := timeEach(qs, slice, func(q *Query) error {
		_, err := fingerprint(q, algEAPrune, phys)
		return err
	}); ok {
		m["core.fingerprint_us"] = ns / 1e3
	}
	if ns, ok := timeEach(qs, slice, func(q *Query) error {
		detectConflicts(q)
		return nil
	}); ok {
		m["conflict.detect_us"] = ns / 1e3
	}

	for _, alg := range fourAlgs {
		if ns, ok := timeEach(qs, slice, func(q *Query) error {
			_, _, err := optimize(q, alg, phys, 0, nil)
			return err
		}); ok {
			m["core.optimize_ms."+alg] = ns / 1e6
		}
	}
	if ns, ok := timeEach(qs, slice, func(q *Query) error {
		_, _, err := optimize(q, algEAPrune, phys, 1, nil)
		return err
	}); ok {
		m["core.optimize_seq_ms.eaprune"] = ns / 1e6
		if par, ok := m["core.optimize_ms.eaprune"]; ok {
			m["core.dp_parallel_ratio"] = par / (ns / 1e6)
		}
	}
}
