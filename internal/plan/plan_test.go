package plan

import (
	"strings"
	"testing"
	"unsafe"

	"eagg/internal/bitset"
	"eagg/internal/query"
)

func samplePlans() (*Plan, *Plan, *Plan) {
	s0 := &Plan{Kind: NodeScan, Rels: bitset.NewV(0), Rel: 0, Card: 100}
	s1 := &Plan{Kind: NodeScan, Rels: bitset.NewV(1), Rel: 1, Card: 10}
	g := &Plan{Kind: NodeGroup, Rels: s0.Rels, GroupBy: bitset.NewV(2), Left: s0, Card: 5, DupFree: true}
	j := &Plan{Kind: NodeOp, Op: query.KindJoin, Rels: bitset.NewV(0, 1), Left: g, Right: s1, Card: 50, Cost: 55}
	return s0, s1, j
}

// TestPlanSize guards the node size: every candidate a DP keeps is copied
// into one, and a copy of the 312 bytes a Plan took while each kind and
// flag had a word of its own was a tenth of a cold optimization's CPU. The
// kinds and flags share one word now; a field added to Plan must fit the
// budget or pay for itself.
func TestPlanSize(t *testing.T) {
	if n := unsafe.Sizeof(Plan{}); n > 272 {
		t.Errorf("unsafe.Sizeof(Plan{}) = %d B, over 272", n)
	}
}

func TestEagerness(t *testing.T) {
	s0, s1, j := samplePlans()
	if j.Eagerness() != 1 {
		t.Errorf("one grouped child: eagerness = %d", j.Eagerness())
	}
	base := &Plan{Kind: NodeOp, Op: query.KindJoin, Left: s0, Right: s1}
	if base.Eagerness() != 0 {
		t.Error("base tree eagerness must be 0")
	}
	g2 := &Plan{Kind: NodeGroup, Left: s1}
	double := &Plan{Kind: NodeOp, Op: query.KindJoin, Left: j.Left, Right: g2}
	if double.Eagerness() != 2 {
		t.Error("double eager must be 2")
	}
	if s0.Eagerness() != 0 {
		t.Error("scans have eagerness 0")
	}
}

func TestHasKeySubsetOf(t *testing.T) {
	p := &Plan{Keys: []bitset.VSet{bitset.NewV(1, 2)}}
	if !p.HasKeySubsetOf(bitset.NewV(1, 2, 3)) {
		t.Error("superset of a key must qualify")
	}
	if p.HasKeySubsetOf(bitset.NewV(1)) {
		t.Error("partial key must not qualify")
	}
}

func TestCountGroupings(t *testing.T) {
	_, _, j := samplePlans()
	if j.CountGroupings() != 1 {
		t.Errorf("CountGroupings = %d", j.CountGroupings())
	}
	final := &Plan{Kind: NodeGroup, Final: true, Left: j}
	if final.CountGroupings() != 1 {
		t.Error("final grouping must not count as eager")
	}
}

func TestSignatureAndString(t *testing.T) {
	_, _, j := samplePlans()
	sig := j.Signature()
	if !strings.Contains(sig, "join") || !strings.Contains(sig, "Γ") {
		t.Errorf("Signature = %q", sig)
	}
	s := j.String()
	for _, want := range []string{"join", "Γ", "scan R0", "scan R1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String misses %q:\n%s", want, s)
		}
	}
}

func TestStringWithQuery(t *testing.T) {
	q := query.New()
	q.AddRelation("lineitem", 100)
	q.AddRelation("orders", 10)
	q.AddAttr(0, "l.x", 5)
	q.AddAttr(1, "o.y", 5)
	a2 := q.AddAttr(0, "l.g", 5)
	_, _, j := samplePlans()
	j.Left.GroupBy = bitset.NewV(a2)
	s := j.StringWithQuery(q)
	if !strings.Contains(s, "lineitem") || !strings.Contains(s, "l.g") {
		t.Errorf("StringWithQuery misses names:\n%s", s)
	}
}
