// Command perfbench is the repository's benchmark: three workloads, one per
// layer group, each measured end to end with every output checked, plus a
// traced run that times each call into the program's public functions for
// per-layer numbers. See README.md for the workloads and the metric map.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload atpg-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output check fails and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what a workload run receives.
type config struct {
	seed    uint64
	seconds time.Duration
	workers int    // Parallelism / workers / clients: one per CPU
	outDir  string // scratch space inside the checkout

	// tr is non-nil in a traced run. There every other operation is
	// traced, so the untraced ones give the overhead baseline.
	tr *tracer
	// companion marks a short traced slice that only feeds the per-layer
	// metrics this workload owns (see runTraced).
	companion bool
	// opBase offsets operation ids, so companion slices sharing the
	// tracer keep their spans apart.
	opBase int64
}

// opID is the trace id of operation i.
func (c config) opID(i int) int64 { return c.opBase + int64(i) }

// traced reports whether operation i of this run records spans.
func (c config) traced(i int) bool {
	return c.tr != nil && (c.companion || i%2 == 1)
}

// more reports whether a job loop starts operation i: a companion slice
// runs one, a traced run at least one traced and one untraced, a timed run
// at least one, and otherwise operations start until the deadline.
func (c config) more(i int, deadline time.Time) bool {
	switch {
	case c.companion:
		return i < 1
	case c.tr != nil && i < 2, i < 1:
		return true
	}
	return time.Now().Before(deadline)
}

// quality is the work's outcome on the paper's axes.
type quality struct {
	detected, total, untestable, aborted, backtracks int
	relations, ties                                  int
}

// outcome is what a workload run reports.
type outcome struct {
	setup  []time.Duration // each repetition of the set-up
	warmup time.Duration   // the one untimed warm-up operation

	lat       []float64 // ms per untraced operation
	tracedLat []float64 // ms per traced operation (traced runs only)
	busy      time.Duration
	ops       tally
	checks    []string // failed check descriptions
	notes     []string // extra lines for the human-readable report
	q         quality
	rssMB     float64

	// layer holds the per-layer metrics this workload owns.
	layer map[string]float64
}

// fail records a failed output check. It counts one more failed
// operation, up to the number attempted: a check that spans every
// operation, such as the serial-reference digest, fails at least one.
func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	if o.ops.failed < o.ops.attempted {
		o.ops.failed++
	}
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload prints untraced. Operations
// are jobs (atpg-cold, learn-suite) or requests (service-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
	{"fault_coverage", "ratio"},
	{"untestable", "count"},
	{"aborted", "count"},
	{"backtracks", "count"},
	{"relations", "count"},
	{"ties", "count"},
}

// perLayer lists the metrics a traced run prints, each owned by the
// workload whose layer it measures (README.md has the map).
var perLayer = []metricDef{
	{"bench.parse_ms", "ms"},
	{"store.fingerprint_ms", "ms"},
	{"store.mem_hit_ms", "ms"},
	{"store.disk_hit_ms", "ms"},
	{"store.miss_ms", "ms"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hit_ratio", "ratio"},
	{"store.miss_ratio", "ratio"},
	{"imply.serialize_ms", "ms"},
	{"imply.load_ms", "ms"},
	{"imply.artifact_mb", "MB"},
	{"learn.wall_ms", "ms"},
	{"learn.unattributed_ms", "ms"},
	{"learn.single_node_ms", "ms"},
	{"learn.equiv_ms", "ms"},
	{"learn.multi_node_ms", "ms"},
	{"learn.comb_learn_ms", "ms"},
	{"learn.sims", "count"},
	{"learn.alloc_mb", "MB"},
	{"atpg.wall_ms", "ms"},
	{"atpg.podem_cpu_ms", "ms"},
	{"atpg.fault_sim_ms", "ms"},
	{"atpg.podem_busy_frac", "ratio"},
	{"atpg.podem_targets", "count"},
	{"atpg.us_per_backtrack", "us"},
	{"atpg.detect_per_target", "ratio"},
	{"atpg.alloc_mb", "MB"},
	{"fault.collapse_ms", "ms"},
	{"fault.verify_ms", "ms"},
	{"fault.untestable_refuted", "count"},
	{"server.elapsed_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.shed", "count"},
	{"seqlearn.fastpath_ratio", "ratio"},
	{"seqlearn.fastpath_fallbacks", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

type workloadFunc func(config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"atpg-cold":     runATPGCold,
	"learn-suite":   runLearnSuite,
	"service-mixed": runServiceMixed,
}

var workloadOrder = []string{"atpg-cold", "learn-suite", "service-mixed"}

func main() {
	var (
		name    = flag.String("workload", "", "atpg-cold, learn-suite or service-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed (see README.md for what it varies)")
		seconds = flag.Float64("seconds", 20, "measurement window per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for the span dump of a traced run and the daemon's cache")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadOrder)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		outDir:  *outDir,
	}
	var (
		metrics map[string]float64
		o       *outcome
		err     error
	)
	if *trace == 1 {
		o, metrics, err = runTraced(*name, cfg, filepath.Join(*outDir, "trace-"+*name+".json"))
	} else {
		o, err = run(cfg)
		if err == nil {
			metrics = endToEndMetrics(o)
			printEndToEnd(*name, o, metrics)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, c := range o.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	correct := len(o.checks) == 0 && o.ops.failed == 0
	fmt.Println(resultJSON(correct, o.ops, defs, metrics))
	if !correct {
		os.Exit(1)
	}
}

func endToEndMetrics(o *outcome) map[string]float64 {
	q := o.q
	return map[string]float64{
		"setup_s":        (medianDuration(o.setup) + o.warmup).Seconds(),
		"op_p50_ms":      median(o.lat),
		"op_p99_ms":      percentile(o.lat, 99),
		"ops_per_s":      float64(len(o.lat)) / o.busy.Seconds(),
		"success_rate":   1 - o.ops.errorRate(),
		"peak_rss_mb":    o.rssMB,
		"fault_coverage": float64(q.detected) / float64(q.total),
		"untestable":     float64(q.untestable),
		"aborted":        float64(q.aborted),
		"backtracks":     float64(q.backtracks),
		"relations":      float64(q.relations),
		"ties":           float64(q.ties),
	}
}

func printEndToEnd(name string, o *outcome, m map[string]float64) {
	n := len(o.lat)
	fmt.Printf("workload %s: %d operations measured, %d attempted, %d failed (error_rate %.4f)\n",
		name, n, o.ops.attempted, o.ops.failed, o.ops.errorRate())
	fmt.Printf("  quality: detected %d / %d, untestable %d, aborted %d, backtracks %d, relations %d, ties %d\n",
		o.q.detected, o.q.total, o.q.untestable, o.q.aborted, o.q.backtracks, o.q.relations, o.q.ties)
	if n <= 64 {
		fmt.Printf("  latencies ms: %s\n", strings.Trim(fmt.Sprintf("%.1f", o.lat), "[]"))
	}
	for _, l := range o.notes {
		fmt.Println("  " + l)
	}
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "op_p50_ms":
			note = fmt.Sprintf("  (n=%d)", n)
		case "op_p99_ms":
			note = fmt.Sprintf("  (n=%d, %d beyond)", n, beyond(o.lat, 99))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups + %.3fs warm-up)", len(o.setup), o.warmup.Seconds())
		}
		fmt.Printf("  %-22s %14.4f %s%s\n", d.name, m[d.name], d.unit, note)
	}
}

// resultJSON renders the final line. Every listed metric must be present
// and finite; a missing one is a benchmark bug and is reported as such.
func resultJSON(correct bool, t tally, defs []metricDef, m map[string]float64) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, t.attempted, t.failed, map[string]val{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = val{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// runTraced runs the named workload with every other operation traced,
// then a short traced companion slice of each other workload, so every
// layer's metrics come from the workload that owns them. It prints the
// self time per layer and the tracing overhead, and writes the spans.
func runTraced(name string, cfg config, dumpPath string) (*outcome, map[string]float64, error) {
	tr := newTracer()
	cfg.tr = tr
	o, err := workloads[name](cfg)
	if err != nil {
		return nil, nil, err
	}
	metrics := map[string]float64{}
	for k, v := range o.layer {
		metrics[k] = v
	}
	untraced, traced := median(o.lat), median(o.tracedLat)
	metrics["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	fmt.Printf("workload %s traced: op_p50 %.3f ms traced (n=%d) vs %.3f ms untraced (n=%d): overhead %.2f%%\n",
		name, traced, len(o.tracedLat), untraced, len(o.lat), metrics["trace.overhead_pct"])

	self, total := tr.selfTimes(func(op int64) bool { return op < companionBase })
	metrics["trace.unattributed_pct"] = 100 * self["op"] / total
	printSelfTimes(name, self, total)

	for k, other := range workloadOrder {
		if other == name {
			continue
		}
		ccfg := cfg
		ccfg.companion = true
		ccfg.opBase = int64(k+1) * companionBase
		co, err := workloads[other](ccfg)
		if err != nil {
			return nil, nil, fmt.Errorf("companion %s: %w", other, err)
		}
		for m, v := range co.layer {
			metrics[m] = v
		}
		cself, ctotal := tr.selfTimes(func(op int64) bool { return op >= ccfg.opBase && op < ccfg.opBase+companionBase })
		printSelfTimes(other+" (companion)", cself, ctotal)
		o.ops.add(co.ops)
		o.checks = append(o.checks, co.checks...)
	}
	if err := tr.writeFile(dumpPath); err != nil {
		return nil, nil, err
	}
	fmt.Printf("spans written to %s\n", dumpPath)
	for _, d := range perLayer {
		fmt.Printf("  %-28s %14.4f %s\n", d.name, metrics[d.name], d.unit)
	}
	return o, metrics, nil
}

// companionBase separates the operation ids of companion slices.
const companionBase = 1 << 40

// printSelfTimes prints each layer's self time as a share of the traced
// operations' wall time; the "op" row is the part no layer span covers.
func printSelfTimes(name string, self map[string]float64, total float64) {
	fmt.Printf("self time by layer, %s (%.1f ms traced):\n", name, total)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		label := l
		if l == "op" {
			label = "unattributed"
		}
		fmt.Printf("  %-14s %12.2f ms %6.2f%%\n", label, self[l], 100*self[l]/total)
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
