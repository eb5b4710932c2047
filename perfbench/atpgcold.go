package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// atpg-cold: one job is one cold campaign on the s5378 stand-in, run in
// process the way cmd/seqatpg runs it: parse the netlist text, collapse the
// fault list, learn, then ATPG in forbidden mode (backtracks 30, windows
// 1/2/4/8, fixed fill seed) over a 200-fault sample.
//
// The sample is fixed: every 25th fault of the collapsed list, spread over
// the whole circuit. The seed shuffles the order PODEM targets it in, which
// changes what each test drops and so the search work, but not the
// population. A seed-drawn random sample would move detected by ±50% and
// untestable by ±15% between seeds, more than any bound could hold.
const (
	atpgCircuit = "s5378"
	atpgSample  = 200
	atpgFill    = 0x7e57
)

// PCG stream ids keep the workloads' seeded draws independent.
const (
	streamATPG = iota + 1
	streamLearn
	streamService
	streamCheck
)

type atpgInput struct {
	name  string
	text  []byte
	order []int // positions in the parsed circuit's collapsed fault list
}

func setupATPGCold(seed uint64) (atpgInput, error) {
	c := gen.MustBuild(atpgCircuit)
	var b bytes.Buffer
	if err := bench.Write(&b, c); err != nil {
		return atpgInput{}, fmt.Errorf("write %s: %w", atpgCircuit, err)
	}
	parsed, err := bench.Parse(atpgCircuit, bytes.NewReader(b.Bytes()))
	if err != nil {
		return atpgInput{}, fmt.Errorf("parse %s: %w", atpgCircuit, err)
	}
	all, _ := fault.Collapse(parsed)
	stride := len(all) / atpgSample
	order := make([]int, atpgSample)
	for i := range order {
		order[i] = i * stride
	}
	rng := rand.New(rand.NewPCG(seed, streamATPG))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return atpgInput{name: atpgCircuit, text: b.Bytes(), order: order}, nil
}

// atpgJobOut is one campaign's result plus, for a traced job, what its
// spans measured.
type atpgJobOut struct {
	c   *netlist.Circuit
	lr  *learn.Result
	res atpg.RunResult

	layer map[string]float64 // traced jobs only
}

// atpgJob runs one campaign. sp is the job's root span (inert when the
// job is untraced).
func atpgJob(in atpgInput, workers int, sp span) (atpgJobOut, error) {
	traced := sp.tr != nil
	out := atpgJobOut{layer: map[string]float64{}}

	s := sp.child("bench.Parse")
	c, err := bench.Parse(in.name, bytes.NewReader(in.text))
	out.layer["bench.parse_ms"] = s.end()
	if err != nil {
		return out, fmt.Errorf("parse %s: %w", in.name, err)
	}
	s = sp.child("fault.Collapse")
	all, _ := fault.Collapse(c)
	out.layer["fault.collapse_ms"] = s.end()
	sample := make([]fault.Fault, len(in.order))
	for i, p := range in.order {
		sample[i] = all[p]
	}

	var lt, at *obs.Trace
	lopt := learn.Options{Parallelism: workers}
	ropt := atpg.RunOptions{Faults: sample, Parallelism: workers}
	if traced {
		lt, at = obs.NewTrace("learn", "learn"), obs.NewTrace("atpg", "atpg")
		lopt.Span, ropt.Span = lt.Root(), at.Root()
	}
	s = sp.child("learn.Learn")
	out.lr = learn.Learn(c, lopt)
	s.end()

	ropt.ATPG = atpg.Options{
		BacktrackLimit: 30,
		Windows:        []int{1, 2, 4, 8},
		Mode:           atpg.ModeForbidden,
		DB:             out.lr.DB,
		Ties:           append(append([]learn.Tie{}, out.lr.CombTies...), out.lr.SeqTies...),
		FillSeed:       atpgFill,
	}
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	s = sp.child("atpg.Run")
	out.res = atpg.Run(c, ropt)
	wall := s.end()
	out.c = c
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r := out.res
		podem, fsim := spanMS(at, "podem"), spanMS(at, "fault_sim")
		out.layer["atpg.wall_ms"] = wall
		out.layer["atpg.podem_cpu_ms"] = podem
		out.layer["atpg.fault_sim_ms"] = fsim
		out.layer["atpg.podem_busy_frac"] = podem / (wall * float64(workers))
		out.layer["atpg.podem_targets"] = float64(r.PodemTargets)
		out.layer["atpg.us_per_backtrack"] = 1000 * podem / float64(r.Backtracks)
		out.layer["atpg.detect_per_target"] = float64(r.PodemTargets-r.Aborted) / float64(r.PodemTargets)
		out.layer["atpg.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return out, nil
}

// spanMS reads the duration of the root's direct child named name from a
// span tree the program recorded.
func spanMS(t *obs.Trace, name string) float64 {
	for _, c := range t.JSON().Root.Children {
		if c.Name == name {
			return c.DurationMS
		}
	}
	return 0
}

func runATPGCold(cfg config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	reps := 3
	if cfg.companion {
		reps = 1
	}
	var in atpgInput
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if in, err = setupATPGCold(cfg.seed); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0))
	}
	if !cfg.companion {
		t0 := time.Now()
		if _, err := atpgJob(in, cfg.workers, span{}); err != nil {
			return nil, err
		}
		o.warmup = time.Since(t0)
	}

	// The window: whole jobs until the deadline passes; each job's outputs
	// are digested and its tests re-simulated between jobs, outside the
	// job's latency.
	var (
		learnDigests, runDigests []string
		layerSamples             = map[string][]float64{}
		verifyMS                 []float64
	)
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; cfg.more(i, deadline); i++ {
		var sp span
		if cfg.traced(i) {
			sp = cfg.tr.root(cfg.opID(i), "op.job")
		}
		// Each job starts from a collected heap, so the garbage of the
		// previous job and its checks is not collected on this one's time.
		runtime.GC()
		t0 := time.Now()
		job, err := atpgJob(in, cfg.workers, sp)
		d := time.Since(t0)
		sp.end()
		o.ops.record(err)
		if err != nil {
			o.checks = append(o.checks, err.Error())
			continue
		}
		o.busy += d
		if cfg.traced(i) {
			o.tracedLat = append(o.tracedLat, ms(d))
		} else {
			o.lat = append(o.lat, ms(d))
		}
		ld, err := learnDigest(job.lr)
		if err != nil {
			o.fail("job %d: %v", i, err)
			continue
		}
		learnDigests = append(learnDigests, ld)
		runDigests = append(runDigests, runDigest(job.res))
		vs := sp.child("fault.PackedSim.verify")
		t1 := time.Now()
		unconfirmed := verifyTests(job.c, job.res)
		if cfg.traced(i) {
			vs.end()
			verifyMS = append(verifyMS, ms(time.Since(t1)))
			for k, v := range job.layer {
				layerSamples[k] = append(layerSamples[k], v)
			}
		}
		if job.res.VerifyFailures != 0 || unconfirmed != 0 {
			o.fail("job %d: %d tests failed atpg.Run's own verification and %d detections were not confirmed by re-simulation",
				i, job.res.VerifyFailures, unconfirmed)
		}
	}
	o.rssMB = peakRSSMB()

	// The serial reference: Parallelism 1 must give the same learned data
	// and the same per-fault outcome as every timed job.
	ref, err := atpgJob(in, 1, span{})
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	refLearn, err := learnDigest(ref.lr)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	refRun := runDigest(ref.res)
	for i := range learnDigests {
		if learnDigests[i] != refLearn || runDigests[i] != refRun {
			o.fail("job %d: learned-snapshot or per-fault status digest differs from the serial reference", i)
		}
	}
	refuted := refuteUntestable(ref.c, ref.res, cfg.seed, 64, 32)
	if refuted != 0 {
		o.fail("%d untestable verdicts refuted by random sequences", refuted)
	}

	r := ref.res
	o.q = quality{detected: r.Detected, total: r.Total, untestable: r.Untestable, aborted: r.Aborted,
		backtracks: r.Backtracks, relations: ref.lr.DB.Len(), ties: len(ref.lr.CombTies) + len(ref.lr.SeqTies)}
	if cfg.tr != nil {
		for k, v := range layerSamples {
			o.layer[k] = median(v)
		}
		o.layer["fault.verify_ms"] = median(verifyMS)
		o.layer["fault.untestable_refuted"] = float64(refuted)
	}
	return o, nil
}
