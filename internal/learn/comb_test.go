package learn

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// combCircuit builds a circuit whose backward implications exercise every
// justification rule: NAND, NOR, XOR, buffers and inverters; flip-flops
// make the relations count as gate-FF / FF-FF.
func combCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("cc")
	b.PI("a")
	b.Gate("nand", logic.OpNand, netlist.P("q1"), netlist.P("q2"))
	b.Gate("nor", logic.OpNor, netlist.P("q1"), netlist.P("q3"))
	b.Gate("xor", logic.OpXor, netlist.P("q2"), netlist.P("q3"))
	b.Gate("inv", logic.OpNot, netlist.P("nand"))
	b.DFF("q1", netlist.P("a"), netlist.Clock{})
	b.DFF("q2", netlist.P("a"), netlist.Clock{})
	b.DFF("q3", netlist.P("a"), netlist.Clock{})
	b.PO("o1", netlist.P("inv"))
	b.PO("o2", netlist.P("nor"))
	b.PO("o3", netlist.P("xor"))
	return b.MustBuild()
}

// TestCombinationalParallelDeterminism: the sharded combinational sweep
// produces a bit-identical database and tie list for any worker count, with
// and without tie constants folded in.
func TestCombinationalParallelDeterminism(t *testing.T) {
	c := combCircuit(t)
	dump := func(db *imply.DB, ties []Tie) string {
		var sb strings.Builder
		if err := db.Serialize(&sb); err != nil {
			t.Fatal(err)
		}
		for _, tie := range ties {
			fmt.Fprintf(&sb, "tie %s=%s\n", c.NameOf(tie.Node), tie.Val)
		}
		return sb.String()
	}
	for _, preTies := range []map[netlist.NodeID]logic.V{
		nil,
		{c.MustLookup("inv"): logic.One},
	} {
		baseDB := imply.NewDB(c)
		base := dump(baseDB, CombinationalParallel(c, baseDB, preTies, 1))
		for _, w := range []int{2, 3, 8} {
			db := imply.NewDB(c)
			got := dump(db, CombinationalParallel(c, db, preTies, w))
			if got != base {
				t.Fatalf("workers=%d: combinational sweep differs from serial (%d vs %d bytes)",
					w, len(got), len(base))
			}
		}
	}
}

func TestCombBackwardNand(t *testing.T) {
	c := combCircuit(t)
	db := imply.NewDB(c)
	Combinational(c, db, nil)
	// nand=0 ⟹ both inputs 1.
	if !db.HasNamed("nand", logic.Zero, "q1", logic.One, 0) ||
		!db.HasNamed("nand", logic.Zero, "q2", logic.One, 0) {
		t.Error("NAND=0 backward implication missing")
	}
	// inv=1 ⟹ nand=0 ⟹ q1=1 (chained through the inverter).
	if !db.HasNamed("inv", logic.One, "q1", logic.One, 0) {
		t.Error("chained NOT backward implication missing")
	}
	// nor=1 ⟹ both inputs 0.
	if !db.HasNamed("nor", logic.One, "q1", logic.Zero, 0) ||
		!db.HasNamed("nor", logic.One, "q3", logic.Zero, 0) {
		t.Error("NOR=1 backward implication missing")
	}
}

func TestCombXorCompletion(t *testing.T) {
	// XOR backward: with q2 known and xor known, q3 follows. The static
	// learner injects one node at a time, so this shows up as the
	// *pairing* of forward implications instead; check the forward
	// direction through an injected FF: q2=1 ⟹ nothing alone, but
	// injecting xor=1 with q2 known is not expressible — instead verify
	// the contrapositive database entries exist via q-injections.
	c := combCircuit(t)
	db := imply.NewDB(c)
	Combinational(c, db, nil)
	// Injecting q1=1 forces nor=0 (forward).
	if !db.HasNamed("q1", logic.One, "nor", logic.Zero, 0) {
		t.Error("forward q1=1 -> nor=0 missing")
	}
	// Every stored relation must be flagged combinational.
	for _, r := range db.Relations() {
		if !db.IsCombinational(r.A, r.B, int(r.Dt)) {
			t.Fatalf("non-combinational relation from comb learner: %v", db.FormatRelation(r))
		}
	}
}

func TestCombTieDetection(t *testing.T) {
	b := netlist.NewBuilder("ct")
	b.PI("x")
	b.Gate("t1", logic.OpAnd, netlist.P("x"), netlist.N("x")) // == 0
	b.Gate("t2", logic.OpOr, netlist.P("x"), netlist.N("x"))  // == 1
	b.DFF("q", netlist.P("t1"), netlist.Clock{})
	b.PO("o", netlist.P("q"))
	b.PO("o2", netlist.P("t2"))
	c := b.MustBuild()
	db := imply.NewDB(c)
	ties := Combinational(c, db, nil)
	got := map[string]logic.V{}
	for _, tie := range ties {
		got[c.NameOf(tie.Node)] = tie.Val
	}
	// Injecting t1=1 forces x=1 through one pin and x=0 through the
	// inverted pin: a conflict, so t1 is combinationally tied to 0. The
	// OR dual ties t2 to 1.
	if got["t1"] != logic.Zero {
		t.Errorf("AND(x,¬x) tie: %v", got)
	}
	if got["t2"] != logic.One {
		t.Errorf("OR(x,¬x) tie: %v", got)
	}
}

// cleanRun is the clean-frame route combProp.run replaced, kept as the
// oracle for the base frame: it clears the whole frame, re-asserts every
// tie and injects n=v before settling anything. p must carry no base frame
// (newCombProp(c, nil)).
func cleanRun(p *combProp, ties map[netlist.NodeID]logic.V, n netlist.NodeID, v logic.V) bool {
	for _, m := range p.touched {
		p.values[m] = logic.X
	}
	p.touched = p.touched[:0]
	p.queue = p.queue[:0]
	clear(p.inQueue)
	p.conflict = false
	for tn, tv := range ties {
		p.assign(tn, tv)
	}
	p.assign(n, v)
	p.settle()
	return !p.conflict
}

// combSites lists the injection sites of the combinational sweep: every
// non-PI node that is not itself tied.
func combSites(c *netlist.Circuit, ties map[netlist.NodeID]logic.V) []netlist.NodeID {
	var sites []netlist.NodeID
	for id := range c.Nodes {
		if _, tied := ties[netlist.NodeID(id)]; !tied && c.Nodes[id].Kind != netlist.KindPI {
			sites = append(sites, netlist.NodeID(id))
		}
	}
	return sites
}

// combTiesOf returns the frame-0 ties sequential learning feeds into the
// combinational pass.
func combTiesOf(c *netlist.Circuit) map[netlist.NodeID]logic.V {
	ties := map[netlist.NodeID]logic.V{}
	for _, tie := range Learn(c, Options{SkipComb: true}).CombTies {
		ties[tie.Node] = tie.Val
	}
	return ties
}

// impliedLits returns the sorted literals an injection left in touched.
func impliedLits(p *combProp) []imply.Lit {
	lits := make([]imply.Lit, 0, len(p.touched))
	for _, m := range p.touched {
		lits = append(lits, imply.Lit{Node: m, Val: p.values[m]})
	}
	slices.SortFunc(lits, func(a, b imply.Lit) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Val) - int(b.Val)
	})
	return lits
}

// TestCombBaseFrameMatchesCleanFrame: for every injection of the sweep,
// starting from the settled base frame reaches the same conflict verdict
// and the same set of implied literals as re-asserting the ties into a
// clean frame.
func TestCombBaseFrameMatchesCleanFrame(t *testing.T) {
	for _, name := range []string{"s1423", "s5378"} {
		c := gen.MustBuild(name)
		ties := combTiesOf(c)
		base, oracle := newCombProp(c, ties), newCombProp(c, nil)
		if base.baseConflict {
			t.Fatalf("%s: learned ties conflict", name)
		}
		injections, conflicts := 0, 0
		for _, n := range combSites(c, ties) {
			for _, v := range []logic.V{logic.Zero, logic.One} {
				injections++
				ok := base.run(n, v)
				if want := cleanRun(oracle, ties, n, v); ok != want {
					t.Fatalf("%s: inject %s=%s: base frame ok=%v, clean frame ok=%v", name, c.NameOf(n), v, ok, want)
				}
				if !ok {
					conflicts++
					continue
				}
				if got, want := impliedLits(base), impliedLits(oracle); !slices.Equal(got, want) {
					t.Fatalf("%s: inject %s=%s: base frame implies %d literals, clean frame %d",
						name, c.NameOf(n), v, len(got), len(want))
				}
			}
		}
		t.Logf("%s: %d ties, base frame of %d literals, %d injections, %d conflicts",
			name, len(ties), base.base, injections, conflicts)
	}
}

// TestCombContradictoryTies: when the tie constants contradict each other,
// the base frame itself conflicts and every injection reports a tie, as
// re-asserting the ties per injection does.
func TestCombContradictoryTies(t *testing.T) {
	b := netlist.NewBuilder("contra")
	b.PI("x")
	b.Gate("a", logic.OpBuf, netlist.P("x"))
	b.Gate("b", logic.OpNot, netlist.P("x"))
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("y"))
	b.DFF("y", netlist.P("g"), netlist.Clock{})
	b.PO("o", netlist.P("b"))
	c := b.MustBuild()
	// a=1 forces x=1, so b=0: contradicts b=1.
	ties := map[netlist.NodeID]logic.V{c.MustLookup("a"): logic.One, c.MustLookup("b"): logic.One}
	p, oracle := newCombProp(c, ties), newCombProp(c, nil)
	if !p.baseConflict {
		t.Fatal("contradictory ties settled without conflict")
	}
	for _, n := range combSites(c, ties) {
		for _, v := range []logic.V{logic.Zero, logic.One} {
			if p.run(n, v) || cleanRun(oracle, ties, n, v) {
				t.Errorf("inject %s=%s succeeded under contradictory ties", c.NameOf(n), v)
			}
		}
	}
	db := imply.NewDB(c)
	got := CombinationalParallel(c, db, ties, 1)
	if want := 2 * len(combSites(c, ties)); len(got) != want {
		t.Errorf("contradictory ties: %d tie verdicts, want %d (one per injection)", len(got), want)
	}
	if db.Len() != 0 {
		t.Errorf("contradictory ties: %d relations learned, want 0", db.Len())
	}
}

// TestCombBaseFrameSpeedSmoke is the CI guard for the base frame: with
// BENCH_SMOKE=1 it fails unless the s5378 combinational sweep from the
// settled base frame runs at least 2x faster than the clean-frame oracle
// that re-asserts every tie per injection. Alternating best of 3 sheds
// scheduling noise; the margin sits well below the measured gap.
func TestCombBaseFrameSpeedSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the base-frame vs clean-frame speed gate")
	}
	c := gen.MustBuild("s5378")
	ties := combTiesOf(c)
	sites := combSites(c, ties)
	sweep := func(run func(netlist.NodeID, logic.V) bool) (time.Duration, int) {
		t0 := time.Now()
		conflicts := 0
		for _, n := range sites {
			for _, v := range []logic.V{logic.Zero, logic.One} {
				if !run(n, v) {
					conflicts++
				}
			}
		}
		return time.Since(t0), conflicts
	}
	base, oracle := newCombProp(c, ties), newCombProp(c, nil)
	fast, slow := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		d, cf := sweep(base.run)
		fast = min(fast, d)
		d, cs := sweep(func(n netlist.NodeID, v logic.V) bool { return cleanRun(oracle, ties, n, v) })
		slow = min(slow, d)
		if cf != cs {
			t.Fatalf("conflict count diverged: base frame %d, clean frame %d", cf, cs)
		}
	}
	t.Logf("clean=%v base=%v speedup=%.1fx (%d ties, %d sites)", slow, fast, float64(slow)/float64(fast), len(ties), len(sites))
	if fast*2 > slow {
		t.Fatalf("base-frame sweep not at least 2x faster than clean frame: clean=%v base=%v", slow, fast)
	}
}
