package main

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/logic"
)

// smallCampaign learns s382 and runs a forbidden-mode ATPG over its first
// 60 collapsed faults.
func smallCampaign(t *testing.T, workers int) (*learn.Result, atpg.RunResult) {
	t.Helper()
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{Parallelism: workers})
	all, _ := fault.Collapse(c)
	res := atpg.Run(c, atpg.RunOptions{
		Faults:      all[:60],
		Parallelism: workers,
		ATPG: atpg.Options{
			BacktrackLimit: 30,
			Mode:           atpg.ModeForbidden,
			DB:             lr.DB,
			Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
			FillSeed:       atpgFill,
		},
	})
	if res.Detected == 0 || res.Untestable+res.Aborted == 0 {
		t.Fatalf("campaign too uniform to exercise the checks: %+v", res)
	}
	return lr, res
}

func TestDigestsMatchSerialReference(t *testing.T) {
	lr2, res2 := smallCampaign(t, 2)
	lr1, res1 := smallCampaign(t, 1)
	d1, err := learnDigest(lr1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := learnDigest(lr2)
	if err != nil {
		t.Fatal(err)
	}
	if err := digestCheck("learn", []string{d2}, []string{d1}); err != nil {
		t.Error(err)
	}
	if err := digestCheck("run", []string{runDigest(res2)}, []string{runDigest(res1)}); err != nil {
		t.Error(err)
	}
}

func TestCorruptedResultFailsDigestCheck(t *testing.T) {
	lr, res := smallCampaign(t, 1)
	ref := runDigest(res)

	status := append([]atpg.FaultStatus(nil), res.Status...)
	for i, s := range status {
		if s == atpg.StatusDetected {
			status[i] = atpg.StatusAborted
			break
		}
	}
	corrupt := res
	corrupt.Status = status
	if digestCheck("run", []string{runDigest(corrupt)}, []string{ref}) == nil {
		t.Error("a flipped fault status passed the digest check")
	}

	corrupt = res
	corrupt.Tests = cloneTests(res.Tests)
	v := &corrupt.Tests[0][0][0]
	*v = flip(*v)
	if digestCheck("run", []string{runDigest(corrupt)}, []string{ref}) == nil {
		t.Error("a flipped test bit passed the digest check")
	}

	learnRef, err := learnDigest(lr)
	if err != nil {
		t.Fatal(err)
	}
	dropped := *lr
	dropped.SeqTies = append([]learn.Tie(nil), lr.SeqTies...)
	dropped.CombTies = lr.CombTies[:len(lr.CombTies)-1]
	d, err := learnDigest(&dropped)
	if err != nil {
		t.Fatal(err)
	}
	if digestCheck("learn", []string{d}, []string{learnRef}) == nil {
		t.Error("a dropped tie passed the learned-snapshot digest check")
	}
}

func TestVerifyTestsCatchesBadTests(t *testing.T) {
	c := gen.MustBuild("s382")
	_, res := smallCampaign(t, 1)
	if n := verifyTests(c, res); n != 0 {
		t.Fatalf("%d detections of a correct run unconfirmed", n)
	}
	bad := res
	bad.Tests = cloneTests(res.Tests)
	for i := range bad.Tests {
		for _, frame := range bad.Tests[i] {
			for j := range frame {
				frame[j] = logic.X
			}
		}
	}
	if verifyTests(c, bad) == 0 {
		t.Error("all-X tests confirmed every detection")
	}
}

func TestRefuteUntestableFindsMislabelledFault(t *testing.T) {
	c := gen.MustBuild("s382")
	_, res := smallCampaign(t, 1)
	if n := refuteUntestable(c, res, 1, 64, 32); n != 0 {
		t.Fatalf("%d untestable verdicts of a correct run refuted", n)
	}
	// Relabel every detected fault untestable: random sequences detect
	// at least one of them.
	bad := res
	bad.Status = append([]atpg.FaultStatus(nil), res.Status...)
	for i, s := range bad.Status {
		if s == atpg.StatusDetected {
			bad.Status[i] = atpg.StatusUntestable
		}
	}
	if refuteUntestable(c, bad, 1, 64, 32) == 0 {
		t.Error("no detected fault relabelled untestable was refuted")
	}
}

func cloneTests(tests [][][]logic.V) [][][]logic.V {
	out := make([][][]logic.V, len(tests))
	for i, test := range tests {
		out[i] = make([][]logic.V, len(test))
		for j, frame := range test {
			out[i][j] = append([]logic.V(nil), frame...)
		}
	}
	return out
}

func flip(v logic.V) logic.V {
	if v == logic.One {
		return logic.Zero
	}
	return logic.One
}
