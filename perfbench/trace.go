package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// the program's public functions; their names are "<layer>.<call>", so a
// layer's self time is the time its spans cover minus the part their
// children cover. Every span carries the id of the operation (job or
// request) it belongs to. Spans stay in memory and are written out once,
// when the run ends. A nil *tracer records nothing, which is how the timed
// (untraced) operations run.

type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an operation's root span
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run started
	End    float64 `json:"end_ms"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span handle; the zero handle (from a nil tracer) is inert.
type span struct {
	tr *tracer
	id int
	op int64
}

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.t0)) }

// root opens the root span of operation op.
func (t *tracer) root(op int64, name string) span {
	return t.open(op, -1, name, time.Now())
}

func (t *tracer) open(op int64, parent int, name string, at time.Time) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name, Start: t.since(at), End: -1})
	return span{tr: t, id: id, op: op}
}

// child opens a span under s.
func (s span) child(name string) span {
	if s.tr == nil {
		return span{}
	}
	return s.tr.open(s.op, s.id, name, time.Now())
}

// end closes s and returns its duration in milliseconds (0 when inert).
func (s span) end() float64 {
	if s.tr == nil {
		return 0
	}
	now := s.tr.since(time.Now())
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	r := &s.tr.spans[s.id]
	r.End = now
	return r.End - r.Start
}

// graft copies a span tree the daemon reported (debug=trace) under s,
// anchoring its start at the client-observed start of s and naming each
// span by the layer that does its work (daemonLayer). Aggregate spans
// (podem, fault_sim) sum work across workers and are not intervals, so
// they are left out.
func (s span) graft(t *obs.TraceJSON) {
	if s.tr == nil || t == nil || t.Root == nil {
		return
	}
	s.tr.mu.Lock()
	base := s.tr.spans[s.id].Start
	s.tr.mu.Unlock()
	var walk func(parent int, n *obs.SpanTree, name string)
	walk = func(parent int, n *obs.SpanTree, name string) {
		if aggregateSpans[n.Name] {
			return
		}
		s.tr.mu.Lock()
		id := len(s.tr.spans)
		s.tr.spans = append(s.tr.spans, spanRec{ID: id, Parent: parent, Op: s.op,
			Name: name, Start: base + n.StartMS, End: base + n.StartMS + n.DurationMS})
		s.tr.mu.Unlock()
		for _, c := range n.Children {
			walk(id, c, daemonLayer(c.Name)+"."+c.Name)
		}
	}
	walk(s.id, t.Root, "server."+t.Root.Name) // the root is named after the endpoint
}

// daemonLayer maps a span under the daemon's request root to a layer:
// queue wait is the server's own, the learn span resolves the
// snapshot through the store (its children are learning phases, present
// on a miss), and the atpg span runs the test-set lookup and, on a miss,
// atpg.Run.
func daemonLayer(name string) string {
	switch name {
	case "parse":
		return "bench"
	case "learn":
		return "store"
	case "single_node", "equiv", "multi_node", "comb_learn":
		return "learn"
	case "atpg", "seed_replay", "compact":
		return "atpg"
	}
	return "server"
}

// aggregateSpans are the program's spans that accumulate time across
// parallel workers instead of bracketing one interval.
var aggregateSpans = map[string]bool{"podem": true, "fault_sim": true}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time in milliseconds of
// the spans of ops accepted by keep: each span's duration minus the union
// of its children's intervals. It also returns the summed duration of the
// operations' root spans, so the caller can express shares.
func (t *tracer) selfTimes(keep func(op int64) bool) (self map[string]float64, total float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]spanRec{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 || !keep(s.Op) {
			continue
		}
		d := s.End - s.Start
		if s.Parent < 0 {
			total += d
		}
		self[layerOf(s.Name)] += d - covered(s, kids[s.ID])
	}
	return self, total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRec, children []spanRec) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	sum, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}

// writeFile dumps every recorded span as JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Spans []spanRec `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
