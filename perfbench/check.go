package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Output checks. They run outside every timed region; a failed check
// fails the operation it belongs to, and therefore the run.

// learnDigest hashes everything a learning run hands its consumers: the
// serialized relation database, the ties with their frames and the
// equivalence-class count. Equal digests mean equal learned data.
func learnDigest(r *learn.Result) (string, error) {
	h := sha256.New()
	if err := r.DB.Serialize(h); err != nil {
		return "", fmt.Errorf("serialize snapshot: %w", err)
	}
	for _, ties := range [][]learn.Tie{r.CombTies, r.SeqTies} {
		for _, t := range ties {
			fmt.Fprintf(h, "tie %d %v %d\n", t.Node, t.Val, t.Frame)
		}
	}
	fmt.Fprintf(h, "equiv %d\n", len(r.EquivClasses))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runDigest hashes an ATPG run's per-fault outcome: every fault with its
// final status, the counts, the backtrack total and every emitted test
// with its target.
func runDigest(r atpg.RunResult) string {
	h := sha256.New()
	for i, f := range r.Faults {
		fmt.Fprintf(h, "%v %v\n", f, r.Status[i])
	}
	fmt.Fprintf(h, "d%d u%d a%d b%d v%d\n", r.Detected, r.Untestable, r.Aborted, r.Backtracks, r.VerifyFailures)
	for i, test := range r.Tests {
		fmt.Fprintf(h, "test %v\n", r.TestTargets[i])
		writeVectors(h, test)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeVectors(h hash.Hash, test [][]logic.V) {
	var b [8]byte
	for _, frame := range test {
		binary.LittleEndian.PutUint64(b[:], uint64(len(frame)))
		h.Write(b[:])
		for _, v := range frame {
			h.Write([]byte{byte(v)})
		}
	}
}

// verifyTests re-simulates every emitted test with a fresh packed fault
// simulator: each test must detect its target, and together the tests
// must detect every fault the run reports detected. It returns the number
// of faults the tests fail to confirm.
func verifyTests(c *netlist.Circuit, r atpg.RunResult) int {
	ps := fault.NewPackedSim(c)
	want := map[fault.Fault]bool{}
	for i, f := range r.Faults {
		if r.Status[i] == atpg.StatusDetected {
			want[f] = true
		}
	}
	bad := 0
	for i, test := range r.Tests {
		ps.LoadSequence(test, nil)
		if !ps.DetectAll([]fault.Fault{r.TestTargets[i]})[0].Detected {
			bad++
		}
		var rest []fault.Fault
		for f := range want {
			rest = append(rest, f)
		}
		for j, d := range ps.DetectAll(rest) {
			if d.Detected {
				delete(want, rest[j])
			}
		}
	}
	return bad + len(want)
}

// refuteUntestable simulates seeded random sequences from the all-X state
// against every fault the run calls untestable and returns how many of
// them a sequence detects. Any detection refutes an untestable verdict.
func refuteUntestable(c *netlist.Circuit, r atpg.RunResult, seed uint64, sequences, frames int) int {
	var unt []fault.Fault
	for i, f := range r.Faults {
		if r.Status[i] == atpg.StatusUntestable {
			unt = append(unt, f)
		}
	}
	if len(unt) == 0 {
		return 0
	}
	ps := fault.NewPackedSim(c)
	rng := logic.NewRand64(seed)
	refuted := map[fault.Fault]bool{}
	for s := 0; s < sequences; s++ {
		seq := make([][]logic.V, frames)
		for t := range seq {
			seq[t] = make([]logic.V, len(c.PIs))
			for i := range seq[t] {
				seq[t][i] = logic.Zero
				if rng.Bool() {
					seq[t][i] = logic.One
				}
			}
		}
		ps.LoadSequence(seq, nil)
		for j, d := range ps.DetectAll(unt) {
			if d.Detected {
				refuted[unt[j]] = true
			}
		}
	}
	return len(refuted)
}

// digestCheck compares digests against a reference and describes the
// first mismatch.
func digestCheck(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d digests, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: item %d digest %.12s differs from the serial reference %.12s", what, i, got[i], want[i])
		}
	}
	return nil
}
