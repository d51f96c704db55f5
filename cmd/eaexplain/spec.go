package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"eagg/internal/aggfn"
	"eagg/internal/query"
)

// The JSON query specification:
//
//	{
//	  "relations": [
//	    {"name": "fact", "card": 1000000,
//	     "attrs": [{"name": "fact.fk", "distinct": 100},
//	               {"name": "fact.g",  "distinct": 10},
//	               {"name": "fact.v",  "distinct": 500000}]},
//	    {"name": "dim", "card": 100,
//	     "attrs": [{"name": "dim.pk", "distinct": 100}],
//	     "keys": [["dim.pk"]]}
//	  ],
//	  "tree": {"op": "join",
//	           "left":  {"scan": "fact"},
//	           "right": {"scan": "dim"},
//	           "pred":  {"left": ["fact.fk"], "right": ["dim.pk"],
//	                     "selectivity": 0.01}},
//	  "groupBy": ["fact.g"],
//	  "aggregates": [{"out": "cnt", "fn": "count(*)"},
//	                 {"out": "total", "fn": "sum", "arg": "fact.v"}]
//	}
//
// Operators: join, leftouter, fullouter, semijoin, antijoin.
type specFile struct {
	Relations []specRel `json:"relations"`
	Tree      *specNode `json:"tree"`
	GroupBy   []string  `json:"groupBy"`
	Aggs      []specAgg `json:"aggregates"`
}

type specRel struct {
	Name  string     `json:"name"`
	Card  float64    `json:"card"`
	Attrs []specAttr `json:"attrs"`
	Keys  [][]string `json:"keys"`
}

type specAttr struct {
	Name     string  `json:"name"`
	Distinct float64 `json:"distinct"`
}

type specNode struct {
	Scan  string    `json:"scan"`
	Op    string    `json:"op"`
	Left  *specNode `json:"left"`
	Right *specNode `json:"right"`
	Pred  *specPred `json:"pred"`
}

type specPred struct {
	Left        []string `json:"left"`
	Right       []string `json:"right"`
	Selectivity float64  `json:"selectivity"`
}

type specAgg struct {
	Out string `json:"out"`
	Fn  string `json:"fn"`
	Arg string `json:"arg"`
}

var opByName = map[string]query.OpKind{
	"join":      query.KindJoin,
	"leftouter": query.KindLeftOuter,
	"fullouter": query.KindFullOuter,
	"semijoin":  query.KindSemiJoin,
	"antijoin":  query.KindAntiJoin,
}

var fnByName = map[string]aggfn.Kind{
	"count(*)": aggfn.CountStar,
	"count":    aggfn.Count,
	"sum":      aggfn.Sum,
	"min":      aggfn.Min,
	"max":      aggfn.Max,
	"avg":      aggfn.Avg,
}

// loadSpec reads and converts a JSON specification into a query.
func loadSpec(path string) (*query.Query, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var sf specFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return nil, fmt.Errorf("parsing spec: %w", err)
	}

	q := query.New()
	relByName := map[string]int{}
	// attrs resolves every attribute name the spec reads, so a bad name
	// is an error here rather than a panic in query.AttrID.
	attrs := map[string]int{}
	ids := func(what string, names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, name := range names {
			id, ok := attrs[name]
			if !ok {
				return nil, fmt.Errorf("%s names unknown attribute %q", what, name)
			}
			out[i] = id
		}
		return out, nil
	}
	for _, r := range sf.Relations {
		id := q.AddRelation(r.Name, r.Card)
		relByName[r.Name] = id
		for _, a := range r.Attrs {
			if prev, dup := attrs[a.Name]; dup {
				return nil, fmt.Errorf("relations %q and %q both declare attribute %q", q.Relations[q.AttrRel[prev]].Name, r.Name, a.Name)
			}
			attrs[a.Name] = q.AddAttr(id, a.Name, a.Distinct)
		}
		for _, k := range r.Keys {
			key, err := ids(fmt.Sprintf("a key of relation %q", r.Name), k)
			if err != nil {
				return nil, err
			}
			q.AddKey(id, key...)
		}
	}

	var build func(n *specNode) (*query.OpNode, error)
	build = func(n *specNode) (*query.OpNode, error) {
		if n == nil {
			return nil, fmt.Errorf("missing tree node")
		}
		if n.Scan != "" {
			id, ok := relByName[n.Scan]
			if !ok {
				return nil, fmt.Errorf("scan of unknown relation %q", n.Scan)
			}
			return &query.OpNode{Kind: query.KindScan, Rel: id}, nil
		}
		kind, ok := opByName[n.Op]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", n.Op)
		}
		if n.Pred == nil || len(n.Pred.Left) == 0 || len(n.Pred.Left) != len(n.Pred.Right) {
			return nil, fmt.Errorf("operator %q needs a predicate with paired attribute lists", n.Op)
		}
		l, err := build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := build(n.Right)
		if err != nil {
			return nil, err
		}
		what := fmt.Sprintf("the predicate of operator %q", n.Op)
		left, err := ids(what, n.Pred.Left)
		if err != nil {
			return nil, err
		}
		right, err := ids(what, n.Pred.Right)
		if err != nil {
			return nil, err
		}
		return &query.OpNode{
			Kind: kind, Left: l, Right: r,
			Pred: &query.Predicate{Left: left, Right: right, Selectivity: n.Pred.Selectivity},
		}, nil
	}
	root, err := build(sf.Tree)
	if err != nil {
		return nil, err
	}
	q.Root = root

	if len(sf.GroupBy) > 0 || len(sf.Aggs) > 0 {
		g, err := ids("groupBy", sf.GroupBy)
		if err != nil {
			return nil, err
		}
		var f aggfn.Vector
		for _, a := range sf.Aggs {
			kind, ok := fnByName[a.Fn]
			if !ok {
				return nil, fmt.Errorf("unknown aggregate %q", a.Fn)
			}
			f = append(f, aggfn.Agg{Out: a.Out, Kind: kind, Arg: a.Arg})
		}
		q.SetGrouping(g, f)
	}
	return q, nil
}
