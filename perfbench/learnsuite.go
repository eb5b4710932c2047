package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// learn-suite: one job is one pass of learn.Learn over seven suite
// circuits of 0.2k to 5.6k gates, retimed and non-reset ones included,
// plus one retimed variant of s953 drawn by the seed. No ATPG runs in the
// job, so a change to PODEM predicts no change here.
var learnSuite = []string{"s953", "s1423", "s3330", "s5378", "s9234", "s510jcsrre", "scfjisdre"}

const (
	retimeBase  = "s953"
	retimeMoves = 12

	// The quality probe: after the window, the pass's s1423 snapshot
	// drives a forbidden-mode ATPG over a fixed 100-fault sample, so a
	// learning change that costs the ATPG shows on the quality metrics.
	probeCircuit = "s1423"
	probeSample  = 100
)

func setupLearnSuite(seed uint64) []*netlist.Circuit {
	cs := make([]*netlist.Circuit, 0, len(learnSuite)+1)
	for _, n := range learnSuite {
		cs = append(cs, gen.MustBuild(n))
	}
	rng := rand.New(rand.NewPCG(seed, streamLearn))
	v := gen.Retime(gen.MustBuild(retimeBase), retimeMoves, rng.Uint64())
	v.Name = fmt.Sprintf("%s-retimed-%d", retimeBase, seed)
	return append(cs, v)
}

// learnPass learns every circuit; with a live span it also reads the
// program's phase spans, allocation and simulation counts into layer.
func learnPass(cs []*netlist.Circuit, workers int, sp span, layer map[string]float64) []*learn.Result {
	out := make([]*learn.Result, len(cs))
	for i, c := range cs {
		opt := learn.Options{Parallelism: workers}
		var lt *obs.Trace
		var before runtime.MemStats
		if sp.tr != nil {
			lt = obs.NewTrace("learn", "learn")
			opt.Span = lt.Root()
			runtime.ReadMemStats(&before)
		}
		s := sp.child("learn.Learn")
		out[i] = learn.Learn(c, opt)
		wall := s.end()
		if sp.tr == nil {
			continue
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		layer["learn.wall_ms"] += wall
		phases := 0.0
		for _, ph := range []string{"single_node", "equiv", "multi_node", "comb_learn"} {
			d := spanMS(lt, ph)
			layer["learn."+ph+"_ms"] += d
			phases += d
		}
		layer["learn.unattributed_ms"] += wall - phases
		layer["learn.sims"] += float64(out[i].Stats.Sims)
		layer["learn.alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return out
}

// implyRoundTrip times the snapshot text format on every learned circuit:
// Serialize, then imply.LoadSnapshot of the same bytes — what the daemon
// pays to persist an artifact and to serve a disk hit.
func implyRoundTrip(cs []*netlist.Circuit, rs []*learn.Result, sp span, layer map[string]float64) error {
	for i, c := range cs {
		var b bytes.Buffer
		s := sp.child("imply.Serialize")
		err := rs[i].DB.Serialize(&b)
		layer["imply.serialize_ms"] += s.end()
		if err != nil {
			return fmt.Errorf("serialize %s: %w", c.Name, err)
		}
		layer["imply.artifact_mb"] += float64(b.Len()) / (1 << 20)
		s = sp.child("imply.LoadSnapshot")
		snap, err := imply.LoadSnapshot(c, &b)
		layer["imply.load_ms"] += s.end()
		if err != nil {
			return fmt.Errorf("load %s: %w", c.Name, err)
		}
		if snap.Len() != rs[i].DB.Len() {
			return fmt.Errorf("load %s: %d relations, serialized %d", c.Name, snap.Len(), rs[i].DB.Len())
		}
	}
	return nil
}

func passDigests(rs []*learn.Result) ([]string, error) {
	out := make([]string, len(rs))
	for i, r := range rs {
		d, err := learnDigest(r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func runLearnSuite(cfg config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	reps := 3
	if cfg.companion {
		reps = 1
	}
	var cs []*netlist.Circuit
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		cs = setupLearnSuite(cfg.seed)
		o.setup = append(o.setup, time.Since(t0))
	}
	if !cfg.companion {
		t0 := time.Now()
		learnPass(cs, cfg.workers, span{}, nil)
		o.warmup = time.Since(t0)
	}

	var (
		digests      [][]string
		layerSamples = map[string][]float64{}
	)
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; cfg.more(i, deadline); i++ {
		var sp span
		traced := cfg.traced(i)
		if traced {
			sp = cfg.tr.root(cfg.opID(i), "op.pass")
		}
		layer := map[string]float64{}
		// Each job starts from a collected heap, so the garbage of the
		// previous job and its checks is not collected on this one's time.
		runtime.GC()
		t0 := time.Now()
		rs := learnPass(cs, cfg.workers, sp, layer)
		d := time.Since(t0)
		sp.end()
		o.ops.record(nil)
		o.busy += d
		if traced {
			o.tracedLat = append(o.tracedLat, ms(d))
			// The snapshot round trip is timed after the pass, as its own
			// traced operation, so it adds nothing to the pass latency.
			isp := cfg.tr.root(cfg.opID(i)+companionBase/2, "op.imply")
			err := implyRoundTrip(cs, rs, isp, layer)
			isp.end()
			if err != nil {
				o.fail("pass %d: %v", i, err)
			}
			for k, v := range layer {
				layerSamples[k] = append(layerSamples[k], v)
			}
		} else {
			o.lat = append(o.lat, ms(d))
		}
		ds, err := passDigests(rs)
		if err != nil {
			o.fail("pass %d: %v", i, err)
			continue
		}
		digests = append(digests, ds)
	}
	o.rssMB = peakRSSMB()

	ref := learnPass(cs, 1, span{}, nil)
	refDigests, err := passDigests(ref)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	for i, ds := range digests {
		if err := digestCheck(fmt.Sprintf("pass %d learned snapshots", i), ds, refDigests); err != nil {
			o.fail("%v", err)
		}
	}
	for _, r := range ref {
		o.q.relations += r.DB.Len()
		o.q.ties += len(r.CombTies) + len(r.SeqTies)
	}
	if err := probeATPG(o, cs, ref, cfg); err != nil {
		return nil, err
	}
	for k, v := range layerSamples {
		o.layer[k] = median(v)
	}
	return o, nil
}

// probeATPG runs the quality probe on the reference pass's snapshot of
// probeCircuit and checks its outputs like atpg-cold does.
func probeATPG(o *outcome, cs []*netlist.Circuit, ref []*learn.Result, cfg config) error {
	k := -1
	for i, c := range cs {
		if c.Name == probeCircuit {
			k = i
		}
	}
	if k < 0 {
		return fmt.Errorf("quality probe: %s is not in the suite", probeCircuit)
	}
	c, lr := cs[k], ref[k]
	all, _ := fault.Collapse(c)
	stride := len(all) / probeSample
	sample := make([]fault.Fault, probeSample)
	for i := range sample {
		sample[i] = all[i*stride]
	}
	res := atpg.Run(c, atpg.RunOptions{
		Faults:      sample,
		Parallelism: cfg.workers,
		ATPG: atpg.Options{
			BacktrackLimit: 30,
			Windows:        []int{1, 2, 4, 8},
			Mode:           atpg.ModeForbidden,
			DB:             lr.DB,
			Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
			FillSeed:       atpgFill,
		},
	})
	if n := verifyTests(c, res); n != 0 || res.VerifyFailures != 0 {
		o.fail("quality probe: %d detections unconfirmed, %d verify failures", n, res.VerifyFailures)
	}
	if n := refuteUntestable(c, res, cfg.seed, 64, 32); n != 0 {
		o.fail("quality probe: %d untestable verdicts refuted", n)
	}
	o.q.detected, o.q.total = res.Detected, res.Total
	o.q.untestable, o.q.aborted, o.q.backtracks = res.Untestable, res.Aborted, res.Backtracks
	return nil
}
