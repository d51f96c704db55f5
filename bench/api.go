// The pinned entry points: this is the only file of the benchmark that
// imports eagg/internal/..., so the list below is everything the
// benchmark depends on. A later PR that renames or folds one of these
// signatures edits this file and nothing else of the harness.
//
//	core      Optimize, Fingerprint, Options{Algorithm,F,Workers,Phys}, ParsePhysMode,
//	          Result{Plan,Stats}, Stats{CsgCmpPairs,PlansBuilt,TablePlans,Levels}
//	plan      Plan{Cost}, (*Plan).SortStats
//	conflict  Detect
//	engine    ExecProfiledOpts, CanonicalTablesOpts, CanonicalRef, OutputAttrs,
//	          RandomData, TraceOptimize, ParseRuntime, ExecOptions{Workers,Runtime,Trace},
//	          ExecStats{ActualCout,ResultRows,Hash}, (*ExecStats).CoutQError
//	algebra   Table{Schema,Rows}, (*Table).Columnar, (*Table).Rel, Row, Value{Kind,I,F,S},
//	          Int, Null, EqualBags, HashTableStats, PoolStats
//	service   NewEngine, EngineOptions{Workers,MaxConcurrent}, (*Engine).Register/NewSession/
//	          Metrics/Close, (*Session).Execute, Request{Opt,Exec,Dataset},
//	          Response{Table,Stats,OptStats,CacheHit,OptimizeMillis,ExecMillis}, Metrics
//	obs       NewTrace, (*Trace).Begin/End/Emit/Annotate/Spans/WriteChrome, Span, KV
//	tpch      Queries, ExecutionScaleAt, GenerateTables
//	randquery Generate, Params{Relations}, Chain, Star
//
// Physical mode and runtime are resolved by their string names, so a
// mode a later PR retires makes its probe report null instead of
// breaking the build.
package main

import (
	"fmt"
	"io"
	"math/rand"

	"eagg/internal/algebra"
	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/service"
	"eagg/internal/tpch"
)

type (
	Query     = query.Query
	Plan      = plan.Plan
	OptStats  = core.Stats
	Table     = algebra.Table
	Row       = algebra.Row
	Value     = algebra.Value
	Rel       = algebra.Rel
	Data      = engine.Data
	TableData = engine.TableData
	ExecStats = engine.ExecStats
	HashStats = algebra.HashTableStats
	Engine    = service.Engine
	Session   = service.Session
	Response  = service.Response
	Trace     = obs.Trace
	Span      = obs.Span
	SpanArg   = obs.KV
)

// Algorithm names as the benchmark spells them (metric suffixes).
const (
	algDPhyp   = "dphyp"
	algH1      = "h1"
	algH2      = "h2"
	algEAPrune = "eaprune"
	algEAAll   = "eaall"
)

// optOptions resolves an algorithm and physical-mode name into optimizer
// options. H2 runs with F = 1.03, the middle of the paper's settings.
func optOptions(alg, phys string, workers int) (core.Options, error) {
	o := core.Options{Workers: workers}
	switch alg {
	case algDPhyp:
		o.Algorithm = core.AlgDPhyp
	case algH1:
		o.Algorithm = core.AlgH1
	case algH2:
		o.Algorithm, o.F = core.AlgH2, 1.03
	case algEAPrune:
		o.Algorithm = core.AlgEAPrune
	case algEAAll:
		o.Algorithm = core.AlgEAAll
	default:
		return o, fmt.Errorf("unknown algorithm %q", alg)
	}
	var err error
	o.Phys, err = core.ParsePhysMode(phys)
	return o, err
}

// optimize is a direct core.Optimize call. With a trace it runs under
// engine.TraceOptimize, which derives the dp-level child spans from
// Stats.Levels.
func optimize(q *Query, alg, phys string, workers int, tr *Trace) (*Plan, OptStats, error) {
	o, err := optOptions(alg, phys, workers)
	if err != nil {
		return nil, OptStats{}, err
	}
	res, err := engine.TraceOptimize(tr, "optimize", func() (*core.Result, error) { return core.Optimize(q, o) })
	if err != nil {
		return nil, OptStats{}, err
	}
	return res.Plan, res.Stats, nil
}

func fingerprint(q *Query, alg, phys string) (string, error) {
	o, err := optOptions(alg, phys, 0)
	if err != nil {
		return "", err
	}
	return core.Fingerprint(q, o), nil
}

// detectConflicts runs conflict detection in the set representation
// core.Optimize would pick for the query.
func detectConflicts(q *Query) {
	if len(q.Relations) <= 63 {
		conflict.Detect[bitset.Set64](q)
	} else {
		conflict.Detect[bitset.Wide](q)
	}
}

func execOptions(runtimeName string, workers int, tr *Trace) (engine.ExecOptions, error) {
	rt, err := engine.ParseRuntime(runtimeName)
	return engine.ExecOptions{Workers: workers, Runtime: rt, Trace: tr}, err
}

// execProfiled is a direct engine.ExecProfiledOpts call with no service
// in the way.
func execProfiled(q *Query, p *Plan, data TableData, runtimeName string, workers int, tr *Trace) (*Table, *ExecStats, error) {
	o, err := execOptions(runtimeName, workers, tr)
	if err != nil {
		return nil, nil, err
	}
	return engine.ExecProfiledOpts(q, p, data, o)
}

// canonicalTables evaluates the unoptimized initial tree on the row
// runtime with one worker: the oracle of the tpch workloads.
func canonicalTables(q *Query, data TableData) (*Table, error) {
	return engine.CanonicalTablesOpts(q, data, engine.ExecOptions{Workers: 1})
}

// canonicalRef evaluates the initial tree with the frozen nested-loop
// operators: the oracle of serve_mixed_small.
func canonicalRef(q *Query, data Data) (*Rel, error) { return engine.CanonicalRef(q, data) }

func outputAttrs(q *Query) []string                     { return engine.OutputAttrs(q) }
func equalBags(want, got *Rel, attrs []string) bool     { return algebra.EqualBags(want, got, attrs) }
func randomData(rng *rand.Rand, q *Query, max int) Data { return engine.RandomData(rng, q, max) }
func intValue(i int64) Value                            { return algebra.Int(i) }

var nullValue = algebra.Null

const (
	kindInt    = algebra.KindInt
	kindFloat  = algebra.KindFloat
	kindString = algebra.KindString
)

// uncachedCopy shares the table's rows under a fresh columnar cache, so
// Columnar() on it pays the conversion again.
func uncachedCopy(t *Table) *Table { return &Table{Schema: t.Schema, Rows: t.Rows} }

func newEngine(workers, maxConcurrent int) *Engine {
	return service.NewEngine(service.EngineOptions{Workers: workers, MaxConcurrent: maxConcurrent})
}

// request describes one service request by names; build resolves it once
// so the timed loop does not parse strings.
type request struct {
	opt  core.Options
	exec engine.ExecOptions
}

func buildRequest(alg, phys, runtimeName string) (request, error) {
	opt, err := optOptions(alg, phys, 0)
	if err != nil {
		return request{}, err
	}
	ex, err := execOptions(runtimeName, 0, nil)
	return request{opt: opt, exec: ex}, err
}

func (r request) execute(s *Session, q *Query, dataset string, tr *Trace) (*Response, error) {
	ex := r.exec
	ex.Trace = tr
	return s.Execute(q, service.Request{Opt: r.opt, Exec: ex, Dataset: dataset})
}

func newTrace() *Trace { return obs.NewTrace() }

// writeChrome merges per-request traces into one Chrome trace-event file;
// offsets[i] is request i's start relative to the first.
func writeChrome(w io.Writer, traces []*Trace, offsetsNS []int64) error {
	all := obs.NewTrace()
	for i, tr := range traces {
		base := all.Len()
		for _, sp := range tr.Spans() {
			parent := -1
			if sp.Parent >= 0 {
				parent = base + sp.Parent
			}
			id := all.Emit(parent, sp.Name, sp.Cat, offsetsNS[i]+sp.StartNS, sp.DurNS, sp.RowsIn, sp.RowsOut)
			for _, kv := range sp.Args {
				all.Annotate(id, kv.Key, kv.Value)
			}
		}
	}
	return all.WriteChrome(w)
}

func tpchQuery(name string) *Query { return tpch.Queries()[name] }

func tpchGenerate(rng *rand.Rand, q *Query, name string, factor float64) TableData {
	return tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt(name, factor))
}

func randomQuery(rng *rand.Rand, relations int) *Query {
	return randquery.Generate(rng, randquery.Params{Relations: relations})
}

func chainQuery(n int) *Query { return randquery.Chain(n) }
func starQuery(n int) *Query  { return randquery.Star(n) }
