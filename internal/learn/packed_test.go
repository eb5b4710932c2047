package learn

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// learnScalar runs Learn on the scalar reference route: every sweep
// injection through a scalar engine, one at a time. It fails the test if
// the packed pool was built instead, which would make every comparison
// against it vacuous.
func learnScalar(t *testing.T, c *netlist.Circuit, opt Options) *Result {
	t.Helper()
	l := newLearner(c, opt, nil)
	l.scalar = true
	res := l.run()
	if l.packed != nil || len(l.engines) == 0 {
		t.Fatal("scalar reference route not taken")
	}
	return res
}

// learnLanes runs Learn on the packed route with at most lanes learning
// machines per batch, exercising lane-boundary handling below the word
// width.
func learnLanes(c *netlist.Circuit, opt Options, lanes int) *Result {
	l := newLearner(c, opt, nil)
	l.lanes = lanes
	return l.run()
}

// TestPackedLearningEquivalence is the packed learner's contract: for
// every batch size and worker count, routing the single- and multiple-node
// sweeps through the 64-lane scheduled runner leaves the learned database
// dump, ties, equivalences, rows and statistics byte-identical to the
// scalar serial learner.
func TestPackedLearningEquivalence(t *testing.T) {
	for _, name := range []string{"s953", "s1423"} {
		c := gen.MustBuild(name)
		base := dumpResult(c, learnScalar(t, c, Options{Parallelism: 1, KeepRows: true}))
		for _, lanes := range []int{1, 7, 64} {
			for _, p := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				got := dumpResult(c, learnLanes(c, Options{Parallelism: p, KeepRows: true}, lanes))
				if got != base {
					t.Fatalf("%s: packed lanes=%d workers=%d dump differs from scalar serial run (%d vs %d bytes)",
						name, lanes, p, len(got), len(base))
				}
			}
		}
	}
}

// TestPackedLearningEquivalenceAblations sweeps the option branches whose
// simulation configurations differ (gating, equivalence partners, the
// early-stop ablation, tie fixpoint feedback) through the packed path.
func TestPackedLearningEquivalenceAblations(t *testing.T) {
	opts := []Options{
		{SingleNodeOnly: true, SkipComb: true},
		{DisableTies: true, SkipComb: true},
		{DisableEquiv: true},
		{DisableEarlyStop: true, SkipComb: true},
		{TieFixpoint: true},
	}
	c := gen.MustBuild("s953")
	for i, opt := range opts {
		scalar := opt
		scalar.Parallelism = 1
		packed := opt
		packed.Parallelism = 4
		if dumpResult(c, learnScalar(t, c, scalar)) != dumpResult(c, Learn(c, packed)) {
			t.Fatalf("option set %d: packed dump differs from scalar serial run", i)
		}
	}
}

// TestPackedLearningMultiClock covers the row-cache interaction: cached
// rows bypass the packed batches entirely and must still merge into the
// same result across class passes.
func TestPackedLearningMultiClock(t *testing.T) {
	c := multiClockCircuit(5)
	base := dumpResult(c, learnScalar(t, c, Options{Parallelism: 1, MaxFrames: 10}))
	for _, lanes := range []int{3, 64} {
		got := dumpResult(c, learnLanes(c, Options{Parallelism: 2, MaxFrames: 10}, lanes))
		if got != base {
			t.Fatalf("multi-clock packed lanes=%d dump differs from scalar serial run", lanes)
		}
	}
}
