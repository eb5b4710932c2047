package atpg

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// arenaSetup learns a suite circuit and returns it with its collapsed
// faults and the driver's generation options for mode (windows 1/2/4,
// backtracks 30, every learned tie, the relation index prebuilt).
func arenaSetup(t *testing.T, name string, mode Mode) (*netlist.Circuit, []fault.Fault, Options) {
	t.Helper()
	c := gen.MustBuild(name)
	lr := learn.Learn(c, learn.Options{Parallelism: 1})
	faults, _ := fault.Collapse(c)
	opt := Options{
		BacktrackLimit: 30,
		Windows:        []int{1, 2, 4},
		Mode:           mode,
		DB:             lr.DB,
		Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
		FillSeed:       0x7e57,
	}
	opt.rels = buildRelIndex(c, opt.DB, opt.Mode, opt.UseCrossFrame)
	return c, faults, opt
}

// checkClean fails unless the arena is back to its between-searches state:
// all-X values, no forbidden mark, no worklist flag, and empty trail,
// worklist, D-frontier list and decision stack.
func checkClean(t *testing.T, a *arena, where string) {
	t.Helper()
	e := &a.e
	if i := slices.IndexFunc(e.values, func(v logic.V5) bool { return v != logic.X5 }); i >= 0 {
		t.Fatalf("%s: value %v left at slot %d", where, e.values[i], i)
	}
	if i := slices.IndexFunc(e.forb, func(b uint8) bool { return b != 0 }); i >= 0 {
		t.Fatalf("%s: forbidden mark %d left at slot %d", where, e.forb[i], i)
	}
	if i := slices.Index(e.inQueue, true); i >= 0 {
		t.Fatalf("%s: worklist flag left at slot %d", where, i)
	}
	if len(e.trail) != 0 || len(e.queue) != 0 || len(e.dpos) != 0 || len(a.stack) != 0 || e.conflict {
		t.Fatalf("%s: trail %d, queue %d, dpos %d, stack %d, conflict %v", where,
			len(e.trail), len(e.queue), len(e.dpos), len(a.stack), e.conflict)
	}
}

// TestArenaReuseMatchesFresh: one arena reused across the first 100
// collapsed faults of s953 and s1423 returns exactly what a fresh arena
// returns for each fault (outcome, window, backtracks and test), in every
// mode, and is clean after every call.
func TestArenaReuseMatchesFresh(t *testing.T) {
	for _, name := range []string{"s953", "s1423"} {
		for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
			c, faults, opt := arenaSetup(t, name, mode)
			a := newArena(c)
			for i, f := range faults[:100] {
				o := opt
				o.FillSeed = opt.FillSeed*31 + uint64(i) + 1
				got := a.generate(f, o)
				where := fmt.Sprintf("%s %v %s", name, mode, f)
				checkClean(t, a, where)
				want := newArena(c).generate(f, o)
				if got.Outcome != want.Outcome || got.Window != want.Window || got.Backtracks != want.Backtracks ||
					!slices.EqualFunc(got.Test, want.Test, slices.Equal) {
					t.Fatalf("%s: reused arena %+v, fresh %+v", where, got, want)
				}
			}
		}
	}
}

// TestArenaAllocs: on a warmed arena a search allocates nothing but the
// test it returns — zero objects for a fault it does not detect, and for a
// detected one the frame slice plus the one backing array of its vectors.
func TestArenaAllocs(t *testing.T) {
	c, faults, opt := arenaSetup(t, "s1423", ModeForbidden)
	a := newArena(c)
	var det, non *fault.Fault
	for i := range faults {
		switch a.generate(faults[i], opt).Outcome {
		case Detected:
			if det == nil {
				det = &faults[i]
			}
		default:
			if non == nil {
				non = &faults[i]
			}
		}
		if det != nil && non != nil {
			break
		}
	}
	if det == nil || non == nil {
		t.Fatal("setup: need a detected and a non-detected fault")
	}
	for _, tc := range []struct {
		f    fault.Fault
		want float64
	}{{*non, 0}, {*det, 2}} {
		if got := testing.AllocsPerRun(20, func() { a.generate(tc.f, opt) }); got != tc.want {
			t.Errorf("%s: %v allocations per search, want %v", tc.f, got, tc.want)
		}
	}
}

// TestEvalGate5MatchesEval5Slice: the arena's pin-level gate evaluator
// agrees with logic.Eval5Slice over the pin values for every op, fanin
// widths 1–16, random pin inversions and all five values.
func TestEvalGate5MatchesEval5Slice(t *testing.T) {
	ops := []logic.Op{logic.OpBuf, logic.OpNot, logic.OpAnd, logic.OpNand, logic.OpOr,
		logic.OpNor, logic.OpXor, logic.OpXnor, logic.OpConst0, logic.OpConst1}
	const perShape = 700 // 10 ops × 16 widths × 700 = 112,000 cases
	r := logic.NewRand64(0xe5a1)
	vals := make([]logic.V5, 16)
	var pins []netlist.Pin
	var ins []logic.V5
	cases := 0
	for _, op := range ops {
		for width := 1; width <= 16; width++ {
			for k := 0; k < perShape; k++ {
				pins, ins = pins[:0], ins[:0]
				for i := range vals {
					vals[i] = logic.V5(r.Next() % 5)
				}
				for i := 0; i < width; i++ {
					p := netlist.Pin{Node: netlist.NodeID(r.Next() % 16), Inv: r.Bool()}
					pins = append(pins, p)
					v := vals[p.Node]
					if p.Inv {
						v = v.Not5()
					}
					ins = append(ins, v)
				}
				if got, want := evalGate5(op, pins, vals), logic.Eval5Slice(op, ins); got != want {
					t.Fatalf("%v%v = %v, Eval5Slice %v", op, ins, got, want)
				}
				cases++
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestUnconfirmedTestsRestOnTies pins why a serial s953 campaign reports
// VerifyFailures: Generate over the collapsed faults (windows 1/2/4,
// backtracks 30, the driver's per-position fill seed) emits tests the
// fault simulator does not confirm from an all-X start, on exactly these
// faults per mode. Without ties or learned data none is unconfirmed; with
// only the combinational ties, n377/0 still is. Learned ties are asserted
// as known values, which the three-valued verifier cannot reproduce from
// X.
func TestUnconfirmedTestsRestOnTies(t *testing.T) {
	c := gen.MustBuild("s953")
	lr := learn.Learn(c, learn.Options{Parallelism: 1})
	faults, _ := fault.Collapse(c)
	sites := []string{"n70", "n338", "n341", "n377"}
	all := append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...)
	ps := fault.NewPackedSim(c)
	for _, tc := range []struct {
		name string
		mode Mode
		ties []learn.Tie
		db   bool
		want []string
	}{
		{"learned", ModeNoLearning, all, true, []string{"n338/0", "n341/1", "n377/0"}},
		{"learned", ModeForbidden, all, true, []string{"n70/1", "n338/0", "n341/0", "n341/1", "n377/0"}},
		{"learned", ModeKnown, all, true, []string{"n338/0", "n377/0"}},
		{"bare", ModeNoLearning, nil, false, nil},
		{"bare", ModeForbidden, nil, false, nil},
		{"bare", ModeKnown, nil, false, nil},
		{"comb-ties", ModeNoLearning, lr.CombTies, false, []string{"n377/0"}},
		{"comb-ties", ModeForbidden, lr.CombTies, false, []string{"n377/0"}},
		{"comb-ties", ModeKnown, lr.CombTies, false, []string{"n377/0"}},
	} {
		opt := Options{BacktrackLimit: 30, Windows: []int{1, 2, 4}, Mode: tc.mode, Ties: tc.ties}
		if tc.db {
			opt.DB = lr.DB
		}
		opt.rels = buildRelIndex(c, opt.DB, opt.Mode, false)
		a := newArena(c)
		var got []string
		for i, f := range faults {
			if !slices.Contains(sites, fmt.Sprintf("n%d", f.Node)) {
				continue
			}
			o := opt
			o.FillSeed = 0x7e57*31 + uint64(i) + 1
			g := a.generate(f, o)
			if g.Outcome != Detected {
				continue
			}
			ps.LoadSequence(g.Test, nil)
			if !ps.DetectAll([]fault.Fault{f})[0].Detected {
				got = append(got, f.String())
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s %v: unconfirmed %v, want %v", tc.name, tc.mode, got, tc.want)
		}
	}
}

// TestForbiddenMarksConflict: the forbidden-mode relation loop must still
// detect a node forbidden both values. Relations a=1 ⟹ b=1 and a=1 ⟹ b=0
// (false, as no sound learning yields) mark b must-not-be-0 and then
// must-not-be-1 when a is set, which is a conflict; with b=1 alone the
// assignment stands.
func TestForbiddenMarksConflict(t *testing.T) {
	b := netlist.NewBuilder("both-marks")
	b.PI("a")
	b.PI("b")
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	a1 := imply.Lit{Node: c.MustLookup("a"), Val: logic.One}
	for _, tc := range []struct {
		vals []logic.V
		want bool
	}{{[]logic.V{logic.One}, true}, {[]logic.V{logic.One, logic.Zero}, false}} {
		db := imply.NewDB(c)
		for _, v := range tc.vals {
			db.Add(a1, imply.Lit{Node: c.MustLookup("b"), Val: v}, 0, false, 0)
		}
		opt := Options{BacktrackLimit: 10, Windows: []int{1}, Mode: ModeForbidden, DB: db.Freeze()}
		opt.rels = buildRelIndex(c, opt.DB, opt.Mode, false)
		a := newArena(c)
		a.start(fault.Fault{Node: c.MustLookup("g"), Stuck: logic.Zero}, &opt)
		p := a.window(1)
		if !p.e.init() {
			t.Fatal("init conflict")
		}
		if got := p.e.assignPI(fnode{0, a1.Node}, logic.One); got != tc.want {
			t.Errorf("b implied %v: assigning a=1 returned %v, want %v", tc.vals, got, tc.want)
		}
	}
}
