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

// goldenRun renders a serial forbidden-mode driver run on a suite circuit:
// every deterministic RunResult field (dumpRun) plus each fault's final
// status, in target order.
func goldenRun(t *testing.T, name string) string {
	t.Helper()
	c := gen.MustBuild(name)
	lr := learn.Learn(c, learn.Options{Parallelism: 1})
	faults, _ := fault.Collapse(c)
	if len(faults) > 200 {
		faults = faults[:200]
	}
	res := driverRun(c, lr, faults, ModeForbidden, 1)
	var sb strings.Builder
	sb.WriteString(dumpRun(res))
	for i, f := range res.Faults {
		fmt.Fprintf(&sb, "%s %s\n", f, res.Status[i])
	}
	return sb.String()
}

// TestPodemGolden pins the serial forbidden-mode campaign (the first 200
// collapsed faults, windows 1/2/4, backtracks 30) to digests recorded
// before the implication engines' worklists were rewritten: any change to
// a decision, implication or evaluation order shows up as a different
// status, backtrack total or test here.
func TestPodemGolden(t *testing.T) {
	for _, tc := range []struct{ name, digest string }{
		{"s953", "2c6734f808150b2aadf5276a22c35e7d7ac611c8816a7ad88659c6ea8d593086"},
		{"s1423", "118f32927635de19ee75cb4523b634982ae5ad6c45f11f90a62885b68f59e21c"},
	} {
		dump := goldenRun(t, tc.name)
		sum := sha256.Sum256([]byte(dump))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: digest %s, want %s\n%s", tc.name, got, tc.digest, dump[:strings.IndexByte(dump, '\n')+1])
		}
	}
}

// TestRollbackClearsWorklist replays the PODEM search loop and checks,
// after every rollback, that no worklist flag is left set. With sound
// learned data no search conflicts (the s953 and s1423 campaigns never
// do), so every rollback there finds the worklist settled and empty. A
// deliberately false tie makes the search conflict: settle stops with
// entries still queued, and the rollback that follows must clear exactly
// those. The test requires that case to occur. Each replay must also
// classify its window as search does.
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
	for _, tg := range targets {
		opt := tg.opt
		opt.rels = buildRelIndex(tg.c, opt.DB, opt.Mode, opt.UseCrossFrame)
		for _, f := range tg.faults {
			for _, w := range []int{1, 2, 4} {
				p := newPodem(tg.c, f, w, &opt)
				got := replaySearch(p, func(mark int) {
					if len(p.e.queue) > 0 {
						leftover++
					}
					p.e.rollback(mark)
					rollbacks++
					if i := slices.Index(p.e.inQueue, true); i >= 0 {
						t.Fatalf("%s %s w=%d: worklist flag %d still set after rollback", tg.c.Name, f, w, i)
					}
				})
				if want := newPodem(tg.c, f, w, &opt).search(); got != want {
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
