package main

import (
	"errors"
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the observed sample 2", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN, so a missing metric is reported")
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	var xs []float64
	for i := 1; i <= 2000; i++ {
		xs = append(xs, float64(i))
	}
	if got := beyond(xs, 99); got != 20 {
		t.Errorf("beyond p99 of 2000 samples = %d, want 20", got)
	}
	if got := beyond([]float64{1, 2, 3, 4, 5, 6, 7}, 99); got != 0 {
		t.Errorf("beyond p99 of 7 samples = %d, want 0 (p99 is the maximum)", got)
	}
	// Ties at the percentile are not beyond it.
	if got := beyond([]float64{1, 5, 5, 5}, 50); got != 0 {
		t.Errorf("beyond p50 of {1,5,5,5} = %d, want 0", got)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var a tally
	if a.errorRate() != 0 {
		t.Error("empty tally must have error rate 0")
	}
	a.record(nil)
	a.record(errors.New("429"))
	a.record(nil)
	a.record(nil)
	var b tally
	b.record(errors.New("504"))
	a.add(b)
	if a.attempted != 5 || a.failed != 2 || a.errorRate() != 0.4 {
		t.Errorf("tally = %+v rate %v, want 5 attempted, 2 failed, 0.4", a, a.errorRate())
	}
}

func TestOutcomeFailNeverExceedsAttempted(t *testing.T) {
	o := &outcome{}
	o.ops.record(nil)
	o.fail("digest mismatch")
	o.fail("refuted verdict")
	if o.ops.failed != 1 || len(o.checks) != 2 {
		t.Errorf("failed %d with %d checks, want 1 failed operation and both checks kept", o.ops.failed, len(o.checks))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []spanRec{
		{ID: 0, Parent: -1, Op: 1, Name: "op.job", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 1, Name: "learn.Learn", Start: 1, End: 4},
		{ID: 2, Parent: 0, Op: 1, Name: "atpg.Run", Start: 3, End: 6},
		{ID: 3, Parent: 2, Op: 1, Name: "fault.Sim", Start: 5, End: 9}, // clipped to its parent
		{ID: 4, Parent: -1, Op: 2, Name: "op.job", Start: 20, End: 30},
	}}
	self, total := tr.selfTimes(func(op int64) bool { return op == 1 })
	want := map[string]float64{"op": 5, "learn": 3, "atpg": 2, "fault": 4}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
	if total != 10 {
		t.Errorf("total = %v, want 10 (op 2 filtered out)", total)
	}
}
