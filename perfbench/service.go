package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/store"
	"repro/seqlearn"
)

// service-mixed: a closed loop of one client per CPU (seqatpg -remote and
// CI callers each wait for their reply) against an in-process daemon over
// loopback with a disk cache dir. Retries are off, so every refused or
// failed request counts. The seeded request stream mixes:
//
//   - reads: warm /v1/learn and /v1/atpg over six small and medium suite
//     circuits, three in four through the X-Circuit-Fingerprint fast path
//     (a caller that has sent the circuit before), the rest uploading the
//     netlist (a new caller);
//   - disk hits: the daemon restarts over the same cache dir every
//     restartEvery, so the next touch of each circuit reloads from disk;
//   - writes (one request in writeEvery): a fresh retimed variant of s1423
//     misses, learns, runs a small ATPG and persists.
//
// Hits take milliseconds and the hot path does almost no compute, so
// parse, fingerprint, LRU, the disk tier, admission and JSON show here.
// Writes are the slowest class and frequent enough that the 99th
// percentile sits inside them rather than on a class boundary.
var serviceSet = []string{"s382", "s510jcsrre", "s953", "s1196", "scfjisdre", "s1423"}

const (
	variantBase   = "s1423"
	variantMoves  = 12
	writeEvery    = 25   // one request in 25 is a write
	fastShare     = 0.75 // of reads
	restartEvery  = 2 * time.Second
	readFaults    = 64 // max_faults of the working set's ATPG
	variantFaults = 16 // max_faults of a write's ATPG

	// writeRecomputes is how many writes per run the checks recompute in
	// process; the rest get checkWrite only.
	writeRecomputes = 24
)

// daemon is an in-process seqlearnd behind one loopback listener; restart
// swaps in a fresh server over the same cache dir, like a process restart
// that keeps its address.
type daemon struct {
	dir     string
	workers int
	cur     atomic.Pointer[server.Server]
	srv     *http.Server
	done    chan error
	base    string

	mu      sync.Mutex
	live    []*server.Server // the current instance and the one before it
	retired daemonCounters   // summed counters of older instances
	err     error            // first failure to read an instance's counters
}

func startDaemon(dir string, workers int) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{dir: dir, workers: workers, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	d.restart()
	d.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.cur.Load().ServeHTTP(w, r)
	})}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// restart replaces the serving instance. An instance two restarts old
// has long finished its last request: its counters are folded into
// retired and the instance, with its in-memory cache, is dropped.
func (d *daemon) restart() {
	s := server.New(server.Config{Store: store.Options{Dir: d.dir}, MaxConcurrent: d.workers})
	d.mu.Lock()
	defer d.mu.Unlock()
	d.live = append(d.live, s)
	d.cur.Store(s)
	if len(d.live) > 2 {
		c, err := instanceCounters(d.live[0])
		if err != nil && d.err == nil {
			d.err = err
		}
		d.retired.add(c)
		d.live = d.live[1:]
	}
}

// stop shuts the listener down, waits for Serve to return and removes the
// cache dir.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// daemonCounters sums /v1/stats and the queue-wait histogram of /metrics
// over daemon instances.
type daemonCounters struct {
	memHits, diskHits, misses int64
	shed                      int64
	queueWaitSum              float64
	queueWaitCount            float64
}

func (c *daemonCounters) add(o daemonCounters) {
	c.memHits += o.memHits
	c.diskHits += o.diskHits
	c.misses += o.misses
	c.shed += o.shed
	c.queueWaitSum += o.queueWaitSum
	c.queueWaitCount += o.queueWaitCount
}

// counters returns the totals over every instance the daemon ran.
func (d *daemon) counters() (daemonCounters, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.retired
	for _, s := range d.live {
		ic, err := instanceCounters(s)
		if err != nil {
			return c, err
		}
		c.add(ic)
	}
	return c, d.err
}

// instanceCounters reads one instance's /v1/stats and /metrics.
func instanceCounters(s *server.Server) (daemonCounters, error) {
	var c daemonCounters
	st := s.StatsSnapshot()
	c.memHits = st.Cache.Hits + st.Cache.Coalesced + st.Cache.ATPGHits + st.Cache.ATPGCoalesced + st.FastPath
	c.diskHits = st.Cache.DiskHits + st.Cache.ATPGDiskHits
	c.misses = st.Cache.Misses + st.Cache.ATPGMisses
	c.shed = st.Shed
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var err error
	c.queueWaitSum, c.queueWaitCount, err = histogramTotals(rec.Body.String(), "seqlearnd_queue_wait_seconds")
	return c, err
}

// histogramTotals adds up the _sum and _count series of one histogram
// family over all its label sets in a Prometheus text exposition.
func histogramTotals(text, family string) (sum, count float64, err error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, family+"_sum"):
			dst = &sum
		case strings.HasPrefix(line, family+"_count"):
			dst = &count
		default:
			continue
		}
		v, perr := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, perr)
		}
		*dst += v
	}
	return sum, count, sc.Err()
}

// countingTransport sees every HTTP exchange of the clients, which is
// where the seqlearn client's fast path shows: fingerprint-only posts and
// the 428 answers that send it back to uploading the body.
type countingTransport struct {
	base              http.RoundTripper
	fastOK, fallbacks atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil && r.Header.Get(server.FingerprintHeader) != "" {
		switch resp.StatusCode {
		case http.StatusOK:
			t.fastOK.Add(1)
		case http.StatusPreconditionRequired:
			t.fallbacks.Add(1)
		}
	}
	return resp, err
}

// svcReq is one request of the stream.
type svcReq struct {
	atpg    bool
	fast    bool // through the client that remembers fingerprints
	circuit int  // index into the working set; -1 for a write
	variant *netlist.Circuit
}

// svcRec is what the benchmark keeps of one answered request.
type svcRec struct {
	req       svcReq
	traced    bool
	latMS     float64
	elapsedMS float64
	cache     string // "hit", "disk" or "miss"
	summary   string // the output fields the checks compare

	// A write's answer, for checkWrite.
	fp                                   string
	total, detected, untestable, aborted int
	verifyFailures                       int
}

// svcInput is the working set as the clients hold it.
type svcInput struct {
	cs []*netlist.Circuit // parsed from the netlist text the daemon receives
}

func setupServiceInput() (svcInput, error) {
	var in svcInput
	for _, n := range serviceSet {
		var b bytes.Buffer
		if err := bench.Write(&b, gen.MustBuild(n)); err != nil {
			return in, fmt.Errorf("write %s: %w", n, err)
		}
		c, err := bench.Parse(n, &b)
		if err != nil {
			return in, fmt.Errorf("parse %s: %w", n, err)
		}
		in.cs = append(in.cs, c)
	}
	return in, nil
}

func learnParams(workers int, traced bool) seqlearn.ServiceLearnParams {
	return seqlearn.ServiceLearnParams{Workers: workers, Trace: traced}
}

func atpgParams(workers, faults int, traced bool) seqlearn.ServiceATPGParams {
	return seqlearn.ServiceATPGParams{
		Learn:      learnParams(workers, traced),
		Mode:       "forbidden",
		Backtracks: 30,
		MaxFaults:  faults,
		Workers:    workers,
	}
}

// client is one closed-loop caller: a long-lived seqlearn.Client for the
// fast path and a fresh one per body-path request (a fresh client has no
// fingerprints, so it always uploads).
type client struct {
	hc      *http.Client
	fast    *seqlearn.Client
	base    string
	workers int
}

func newClient(base string, hc *http.Client, workers int) *client {
	return &client{hc: hc, fast: newSeqlearnClient(base, hc), base: base, workers: workers}
}

func newSeqlearnClient(base string, hc *http.Client) *seqlearn.Client {
	cl := seqlearn.NewClient(base)
	cl.SetHTTPClient(hc)
	cl.SetRetryPolicy(seqlearn.RetryPolicy{MaxAttempts: 1})
	return cl
}

// do sends one request and records its latency, the daemon's elapsed time,
// the cache outcome and the summary the checks compare. With a live span
// it asks for debug=trace and grafts the daemon's span tree under it.
func (cl *client) do(ctx context.Context, in svcInput, r svcReq, sp span) (svcRec, error) {
	rec := svcRec{req: r, traced: sp.tr != nil}
	sc := cl.fast
	if !r.fast {
		sc = newSeqlearnClient(cl.base, cl.hc)
	}
	c, faults := r.variant, variantFaults
	if r.circuit >= 0 {
		c, faults = in.cs[r.circuit], readFaults
	}
	traced := sp.tr != nil
	var err error
	t0 := time.Now()
	if r.atpg {
		s := sp.child("seqlearn.Client.GenerateTests")
		var res *seqlearn.ServiceATPGResult
		res, err = sc.GenerateTests(ctx, c, atpgParams(cl.workers, faults, traced))
		rec.latMS = ms(time.Since(t0))
		if err == nil {
			s.graft(res.Trace)
			rec.elapsedMS = res.ElapsedMS
			rec.cache = atpgCache(res.Cache, res.TestsCache)
			rec.summary = atpgSummary(res.Fingerprint, res.Total, res.Detected, res.Untestable, res.Aborted,
				res.Backtracks, res.Tests, res.VerifyFailures)
			rec.fp, rec.total, rec.detected, rec.untestable, rec.aborted = res.Fingerprint, res.Total, res.Detected, res.Untestable, res.Aborted
			rec.verifyFailures = res.VerifyFailures
		}
		s.end()
	} else {
		s := sp.child("seqlearn.Client.Learn")
		var res *seqlearn.ServiceLearnResult
		res, err = sc.Learn(ctx, c, learnParams(cl.workers, traced))
		rec.latMS = ms(time.Since(t0))
		if err == nil {
			s.graft(res.Trace)
			rec.elapsedMS = res.ElapsedMS
			rec.cache = learnCache(res.Cache)
			rec.summary = learnSummary(res.Fingerprint, res.Relations, res.CombTies, res.SeqTies, res.EquivClasses)
		}
		s.end()
	}
	return rec, err
}

func learnCache(c string) string {
	if c == "coalesced" {
		return "hit"
	}
	return c
}

// atpgCache folds the learning and test-set lookups of one ATPG request
// into one outcome: a miss if either ran, else a disk hit if either
// reloaded, else a memory hit.
func atpgCache(learnC, testsC string) string {
	switch {
	case learnC == "miss" || testsC == "miss":
		return "miss"
	case learnC == "disk" || testsC == "disk":
		return "disk"
	}
	return "hit"
}

func learnSummary(fp string, relations, combTies, seqTies, equiv int) string {
	return fmt.Sprintf("learn %s rel=%d ct=%d st=%d eq=%d", fp, relations, combTies, seqTies, equiv)
}

func atpgSummary(fp string, total, det, unt, ab, bt, tests, vf int) string {
	return fmt.Sprintf("atpg %s t=%d d=%d u=%d a=%d b=%d n=%d vf=%d", fp, total, det, unt, ab, bt, tests, vf)
}

// checkWrite checks a write's answer without recomputing it: the
// fingerprint must address this variant under the request's options, the
// fault counts must add up to the targeted faults, and no emitted test may
// have failed the daemon's own re-simulation.
func checkWrite(r svcRec, workers int) error {
	want := store.Fingerprint(r.req.variant, learnParams(workers, false).Options())
	if r.fp != want {
		return fmt.Errorf("answer fingerprint %.12s, variant fingerprint %.12s", r.fp, want)
	}
	if r.total != variantFaults || r.detected+r.untestable+r.aborted != r.total || r.verifyFailures != 0 {
		return fmt.Errorf("inconsistent ATPG answer %q", r.summary)
	}
	return nil
}

// reference computes in process what the daemon must answer for circuit
// c: the learn summary and the ATPG summary, plus the quality counts of
// that ATPG run. It runs with parallelism par; results are bit-identical
// for any value (the other workloads check that against serial runs).
func reference(c *netlist.Circuit, workers, par, faults int) (learnSum, atpgSum string, lr *learn.Result, res atpg.RunResult, err error) {
	lp := learnParams(workers, false)
	lopt := lp.Options()
	lopt.Parallelism = par
	lr = learn.Learn(c, lopt)
	fp := store.Fingerprint(c, lp.Options())
	learnSum = learnSummary(fp, lr.DB.Len(), len(lr.CombTies), len(lr.SeqTies), len(lr.EquivClasses))
	ap := atpgParams(workers, faults, false)
	ropt, err := ap.RunOptions(&store.Artifact{DB: lr.DB, CombTies: lr.CombTies, SeqTies: lr.SeqTies})
	if err != nil {
		return "", "", nil, res, err
	}
	ropt.Parallelism = par
	res = atpg.Run(c, ropt)
	atpgSum = atpgSummary(fp, res.Total, res.Detected, res.Untestable, res.Aborted, res.Backtracks, len(res.Tests), 0)
	return learnSum, atpgSum, lr, res, nil
}

func runServiceMixed(cfg config) (_ *outcome, err error) {
	o := &outcome{layer: map[string]float64{}}
	reps := 3
	if cfg.companion {
		reps = 1
	}
	transport := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.workers}}
	hc := &http.Client{Transport: transport}
	defer transport.base.(*http.Transport).CloseIdleConnections()
	ctx := context.Background()

	// Each set-up generates the working set, starts a daemon on an empty
	// cache dir and primes it (every circuit learned and ATPG'd, which
	// also persists them). Only the last set-up's daemon serves the window.
	var (
		in svcInput
		d  *daemon
	)
	for r := 0; r < reps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t0 := time.Now()
		if in, err = setupServiceInput(); err != nil {
			return nil, err
		}
		if d, err = startDaemon(filepath.Join(cfg.outDir, fmt.Sprintf("svc-cache-%d", os.Getpid())), cfg.workers); err != nil {
			return nil, err
		}
		prime := newClient(d.base, hc, cfg.workers)
		for i := range in.cs {
			for _, a := range []bool{false, true} {
				if _, err := prime.do(ctx, in, svcReq{atpg: a, circuit: i}, span{}); err != nil {
					d.stop()
					return nil, fmt.Errorf("prime %s: %w", in.cs[i].Name, err)
				}
			}
		}
		o.setup = append(o.setup, time.Since(t0))
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stop daemon: %w", serr)
		}
	}()

	// The warm-up: every read kind once.
	if !cfg.companion {
		t0 := time.Now()
		warm := newClient(d.base, hc, cfg.workers)
		for i := range in.cs {
			for _, a := range []bool{false, true} {
				for _, f := range []bool{false, true} {
					if _, err := warm.do(ctx, in, svcReq{atpg: a, fast: f, circuit: i}, span{}); err != nil {
						return nil, fmt.Errorf("warm-up %s: %w", in.cs[i].Name, err)
					}
				}
			}
		}
		o.warmup = time.Since(t0)
	}
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	fastBefore, fallbacksBefore := transport.fastOK.Load(), transport.fallbacks.Load()

	window := cfg.seconds
	if cfg.companion {
		window = 2*restartEvery + restartEvery/2
	}
	recs, tallies, elapsed := serviceWindow(ctx, cfg, in, d, hc, window)
	o.rssMB = peakRSSMB()
	for _, t := range tallies {
		o.ops.add(t)
	}
	after, err := d.counters()
	if err != nil {
		return nil, err
	}

	// Checks: every answer against an in-process reference (serial for the
	// working set, at the service's parallelism for the fresh variants).
	checkStart := time.Now()
	type refSums struct{ learn, atpg string }
	refs := map[*netlist.Circuit]refSums{}
	for _, c := range in.cs {
		ls, as, lr, res, err := reference(c, cfg.workers, 1, readFaults)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.Name, err)
		}
		refs[c] = refSums{ls, as}
		o.q.relations += lr.DB.Len()
		o.q.ties += len(lr.CombTies) + len(lr.SeqTies)
		o.q.detected += res.Detected
		o.q.total += res.Total
		o.q.untestable += res.Untestable
		o.q.aborted += res.Aborted
		o.q.backtracks += res.Backtracks
	}
	// Every write gets the cheap checks; a seeded sample of them is also
	// recomputed in process. Recomputing all of them would cost as much
	// as the window itself: writes are most of the daemon's work.
	var writes []int
	for i, r := range recs {
		if r.req.circuit < 0 {
			writes = append(writes, i)
		}
	}
	recompute := map[int]bool{}
	rng := rand.New(rand.NewPCG(cfg.seed, streamCheck))
	for _, k := range rng.Perm(len(writes))[:min(writeRecomputes, len(writes))] {
		recompute[writes[k]] = true
	}
	var lat, tracedLat []float64
	byClass := map[string][]float64{}
	var serverMS, transportMS []float64
	for i, r := range recs {
		if r.traced {
			tracedLat = append(tracedLat, r.latMS)
			byClass[r.cache] = append(byClass[r.cache], r.latMS)
			serverMS = append(serverMS, r.elapsedMS)
			transportMS = append(transportMS, r.latMS-r.elapsedMS)
		} else {
			lat = append(lat, r.latMS)
		}
		c := r.req.variant
		if r.req.circuit >= 0 {
			c = in.cs[r.req.circuit]
		} else if err := checkWrite(r, cfg.workers); err != nil {
			o.fail("%s: %v", c.Name, err)
		}
		ref, ok := refs[c]
		if !ok {
			if !recompute[i] {
				continue
			}
			ls, as, _, _, err := reference(c, cfg.workers, cfg.workers, variantFaults)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", c.Name, err)
			}
			ref = refSums{ls, as}
		}
		want := ref.learn
		if r.req.atpg {
			want = ref.atpg
		}
		if r.summary != want {
			o.fail("%s: answered %q, reference %q", c.Name, r.summary, want)
		}
	}
	o.lat, o.tracedLat = lat, tracedLat
	o.busy = elapsed
	o.notes = append(o.notes, classTable(recs)...)
	o.notes = append(o.notes, fmt.Sprintf("checks of %d answers took %.1fs", len(recs), time.Since(checkStart).Seconds()))

	if cfg.tr != nil {
		hits, disk, miss := after.memHits-before.memHits, after.diskHits-before.diskHits, after.misses-before.misses
		lookups := float64(hits + disk + miss)
		o.layer["store.mem_hit_ms"] = median(byClass["hit"])
		o.layer["store.disk_hit_ms"] = median(byClass["disk"])
		o.layer["store.miss_ms"] = median(byClass["miss"])
		o.layer["store.mem_hit_ratio"] = float64(hits) / lookups
		o.layer["store.disk_hit_ratio"] = float64(disk) / lookups
		o.layer["store.miss_ratio"] = float64(miss) / lookups
		o.layer["server.elapsed_ms"] = median(serverMS)
		o.layer["server.transport_ms"] = median(transportMS)
		o.layer["server.queue_wait_ms"] = 1000 * (after.queueWaitSum - before.queueWaitSum) /
			(after.queueWaitCount - before.queueWaitCount)
		o.layer["server.shed"] = float64(after.shed - before.shed)
		o.layer["seqlearn.fastpath_ratio"] = float64(transport.fastOK.Load()-fastBefore) / float64(len(recs))
		o.layer["seqlearn.fastpath_fallbacks"] = float64(transport.fallbacks.Load() - fallbacksBefore)
		o.layer["store.fingerprint_ms"] = fingerprintMS(cfg, in)
	}
	return o, nil
}

// classTable describes the latency of each request class (reads by cache
// outcome, writes) so the tail percentile can be placed inside one.
func classTable(recs []svcRec) []string {
	classes := map[string][]float64{}
	for _, r := range recs {
		k := r.cache
		switch {
		case r.req.circuit < 0:
			k = "write-" + k
		case r.req.fast:
			k += "-fast"
		default:
			k += "-body"
		}
		classes[k] = append(classes[k], r.latMS)
	}
	var out []string
	for _, k := range []string{"hit-fast", "hit-body", "disk-fast", "disk-body", "miss-fast", "miss-body", "write-miss", "write-disk", "write-hit"} {
		if xs := classes[k]; len(xs) > 0 {
			out = append(out, fmt.Sprintf("class %-10s n=%5d (%5.2f%%) p50 %9.3f ms  p90 %9.3f ms  max %9.3f ms",
				k, len(xs), 100*float64(len(xs))/float64(len(recs)), median(xs), percentile(xs, 90), percentile(xs, 100)))
		}
	}
	return out
}

// fingerprintMS times store.Fingerprint, the hash every body-path request
// pays, on each working-set circuit and returns the median call.
func fingerprintMS(cfg config, in svcInput) float64 {
	sp := cfg.tr.root(cfg.opID(0)+companionBase/2, "op.fingerprint")
	defer sp.end()
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		for _, c := range in.cs {
			s := sp.child("store.Fingerprint")
			store.Fingerprint(c, learnParams(cfg.workers, false).Options())
			xs = append(xs, s.end())
		}
	}
	return median(xs)
}

// serviceWindow runs the closed loop for the window with the restart
// schedule beside it. It returns every answered request, each client's
// tally and the time until the last request in flight at the deadline
// finished.
func serviceWindow(ctx context.Context, cfg config, in svcInput, d *daemon, hc *http.Client, window time.Duration) ([]svcRec, []tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	stop := make(chan struct{})
	var restarts sync.WaitGroup
	restarts.Add(1)
	go func() {
		defer restarts.Done()
		t := time.NewTicker(restartEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				d.restart()
			}
		}
	}()

	recs := make([][]svcRec, cfg.workers)
	tallies := make([]tally, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(d.base, hc, cfg.workers)
			rng := rand.New(rand.NewPCG(cfg.seed, streamService<<8|uint64(w)))
			variantRng := rand.New(rand.NewPCG(cfg.seed, streamService<<16|uint64(w)))
			// Writes come at a fixed period from a seeded phase: a drawn
			// share would move the write count, and with it throughput, by
			// more than the bound between seeds.
			phase := rng.IntN(writeEvery)
			for j := 0; time.Now().Before(deadline); j++ {
				req := svcReq{atpg: rng.IntN(2) == 1, fast: rng.Float64() < fastShare, circuit: rng.IntN(len(in.cs))}
				if j%writeEvery == phase {
					v := gen.Retime(gen.MustBuild(variantBase), variantMoves, variantRng.Uint64())
					v.Name = fmt.Sprintf("%s-v%d-%d", variantBase, w, j)
					req = svcReq{atpg: true, fast: false, circuit: -1, variant: v}
				}
				var sp span
				if cfg.traced(j) {
					sp = cfg.tr.root(cfg.opID(w<<32|j), "op.request")
				}
				rec, err := cl.do(ctx, in, req, sp)
				sp.end()
				tallies[w].record(err)
				if err == nil {
					recs[w] = append(recs[w], rec)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	restarts.Wait()
	var all []svcRec
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, tallies, elapsed
}
