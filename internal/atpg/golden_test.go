package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// goldenRun renders a serial driver run on a suite circuit in the given
// mode: every deterministic RunResult field (dumpRun) plus each fault's
// final status, in target order.
func goldenRun(t *testing.T, name string, mode Mode, crossFrame bool) string {
	t.Helper()
	c := gen.MustBuild(name)
	lr := learn.Learn(c, learn.Options{Parallelism: 1})
	faults, _ := fault.Collapse(c)
	if len(faults) > 200 {
		faults = faults[:200]
	}
	res := Run(c, RunOptions{
		Faults:      faults,
		Parallelism: 1,
		ATPG: Options{
			BacktrackLimit: 30,
			Windows:        []int{1, 2, 4},
			Mode:           mode,
			DB:             lr.DB,
			Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
			FillSeed:       0x7e57,
			UseCrossFrame:  crossFrame,
		},
	})
	var sb strings.Builder
	sb.WriteString(dumpRun(res))
	for i, f := range res.Faults {
		fmt.Fprintf(&sb, "%s %s\n", f, res.Status[i])
	}
	return sb.String()
}

// TestPodemGolden pins serial driver campaigns (the first 200 collapsed
// faults, windows 1/2/4, backtracks 30) to digests recorded before the
// implication engine was rewritten: any change to a decision, implication
// or evaluation order shows up as a different status, backtrack total or
// test here. The forbidden-mode digests predate the worklist rewrite; the
// nolearn, known and known+cross-frame digests were recorded before the
// flat search arena replaced the per-window model, since the kernel paths
// all modes share changed with it.
func TestPodemGolden(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mode       Mode
		crossFrame bool
		digest     string
	}{
		{"s953", ModeForbidden, false, "2c6734f808150b2aadf5276a22c35e7d7ac611c8816a7ad88659c6ea8d593086"},
		{"s1423", ModeForbidden, false, "118f32927635de19ee75cb4523b634982ae5ad6c45f11f90a62885b68f59e21c"},
		{"s953", ModeNoLearning, false, "ade8d818b5f80988ceb98866183caaa603e7c15d176f39738ba65ccf36fc1184"},
		{"s1423", ModeNoLearning, false, "91324de825e444450db71b06b9bd430dc1d30d4d4297c19920a968b0a8d3f0dd"},
		{"s953", ModeKnown, false, "91fe22b1b8c52c1fa54c29a4613d0d823615f6130cd95f648edfb2cad52f7b00"},
		{"s1423", ModeKnown, false, "5b2e3b3ca1e2c019fb7386cfbc7020819e936178f44df8e30972a41e24335965"},
		{"s953", ModeKnown, true, "91fe22b1b8c52c1fa54c29a4613d0d823615f6130cd95f648edfb2cad52f7b00"},
		{"s1423", ModeKnown, true, "5b2e3b3ca1e2c019fb7386cfbc7020819e936178f44df8e30972a41e24335965"},
	} {
		dump := goldenRun(t, tc.name, tc.mode, tc.crossFrame)
		sum := sha256.Sum256([]byte(dump))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s %v cross=%v: digest %s, want %s\n%s", tc.name, tc.mode, tc.crossFrame, got, tc.digest, dump[:strings.IndexByte(dump, '\n')+1])
		}
	}
}

// TestRollbackClearsWorklist replays the PODEM search loop and checks,
// after every rollback, that no worklist flag is left set and that the
// D-frontier list holds exactly the faulted value entries left on the
// trail, none at or past the mark. With sound learned data no search
// conflicts (the s953 and s1423 campaigns never do), so every rollback
// there finds the worklist settled and empty. A deliberately false tie
// makes the search conflict: settle stops with entries still queued, and
// the rollback that follows must clear exactly those. The test requires
// that case to occur. Each replay must also classify its window as search
// does on a fresh arena.
func TestRollbackClearsWorklist(t *testing.T) {
	type target struct {
		c      *netlist.Circuit
		faults []fault.Fault
		opt    Options
	}
	var targets []target
	for _, name := range []string{"s953", "s1423"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{Parallelism: 1})
		faults, _ := fault.Collapse(c)
		targets = append(targets, target{c, faults[:100], Options{
			BacktrackLimit: 30, Mode: ModeForbidden, DB: lr.DB,
			Ties: append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
		}})
	}
	// g1 = BUF(a) is tied to 0, which the circuit does not obey. Testing
	// g2 s-a-0 sets a=1, which queues a's fanouts g2, g3 and g1; settle
	// pops g1 first and conflicts with the tie, leaving g2 and g3 queued.
	b := netlist.NewBuilder("false-tie")
	b.PI("a")
	b.Gate("g2", logic.OpBuf, netlist.P("a"))
	b.Gate("g3", logic.OpNot, netlist.P("a"))
	b.Gate("g1", logic.OpBuf, netlist.P("a"))
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	b.PO("o3", netlist.P("g3"))
	c := b.MustBuild()
	targets = append(targets, target{c, []fault.Fault{{Node: c.MustLookup("g2"), Stuck: logic.Zero}}, Options{
		BacktrackLimit: 30, Ties: []learn.Tie{{Node: c.MustLookup("g1"), Val: logic.Zero}},
	}})

	rollbacks, leftover := 0, 0
	var faulted []int32
	for _, tg := range targets {
		opt := tg.opt
		opt.rels = buildRelIndex(tg.c, opt.DB, opt.Mode, opt.UseCrossFrame)
		a := newArena(tg.c)
		for _, f := range tg.faults {
			a.start(f, &opt)
			for _, w := range []int{1, 2, 4} {
				p := a.window(w)
				got := replaySearch(&p, func(mark int) {
					if len(p.e.queue) > 0 {
						leftover++
					}
					p.e.rollback(mark)
					rollbacks++
					if i := slices.Index(p.e.inQueue, true); i >= 0 {
						t.Fatalf("%s %s w=%d: worklist flag %d still set after rollback", tg.c.Name, f, w, i)
					}
					if n := len(p.e.dpos); n > 0 && int(p.e.dpos[n-1]) >= mark {
						t.Fatalf("%s %s w=%d: D-frontier position %d at or past mark %d", tg.c.Name, f, w, p.e.dpos[n-1], mark)
					}
					faulted = faulted[:0]
					for k, te := range p.e.trail {
						if te.forbBit == 0 && p.e.val(te.at.t, te.at.n).Faulted() {
							faulted = append(faulted, int32(k))
						}
					}
					if !slices.Equal(p.e.dpos, faulted) {
						t.Fatalf("%s %s w=%d: D-frontier %v, faulted trail entries %v", tg.c.Name, f, w, p.e.dpos, faulted)
					}
				})
				a.release(&p)
				fresh := newArena(tg.c)
				fresh.start(f, &opt)
				q := fresh.window(w)
				if want := q.search(); got != want {
					t.Fatalf("%s %s w=%d: replay classified %v, search %v", tg.c.Name, f, w, got, want)
				}
			}
		}
	}
	if leftover == 0 {
		t.Fatalf("no rollback followed a conflict with a non-empty worklist (%d rollbacks)", rollbacks)
	}
	t.Logf("%d rollbacks, %d with queued entries", rollbacks, leftover)
}

// replaySearch is podem.search with every rollback routed through the
// given function.
func replaySearch(p *podem, rollback func(mark int)) Outcome {
	if !p.e.init() {
		return Untestable
	}
	for {
		if p.e.detected() {
			return Detected
		}
		assigned := false
		if at, v, ok := p.nextObjective(); ok {
			p.stack = append(p.stack, decision{at: at, val: v, mark: p.e.mark()})
			assigned = p.e.assignPI(at, v)
		}
		if assigned {
			continue
		}
		for {
			if len(p.stack) == 0 {
				return Untestable
			}
			top := &p.stack[len(p.stack)-1]
			rollback(top.mark)
			if top.flipped {
				p.stack = p.stack[:len(p.stack)-1]
				continue
			}
			p.backtracks++
			if p.backtracks > p.opt.BacktrackLimit {
				return Aborted
			}
			top.flipped = true
			top.val = top.val.Not()
			if p.e.assignPI(top.at, top.val) {
				break
			}
		}
	}
}
