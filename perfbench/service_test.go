package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/server"
)

// TestErrorAccounting drives the benchmark's request path against a
// daemon that refuses with 429, times out with 504 and drops a connection
// before answering normally. With retries off each refusal is exactly one
// failed operation, and the daemon sees no retried request.
func TestErrorAccounting(t *testing.T) {
	var (
		real     atomic.Pointer[server.Server]
		exchange atomic.Int64
	)
	real.Store(server.New(server.Config{}))
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch exchange.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "admission queue full"})
		case 2:
			w.WriteHeader(http.StatusGatewayTimeout)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "deadline expired"})
		case 3:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		default:
			real.Load().ServeHTTP(w, r)
		}
	}))
	defer fake.Close()

	in := svcInput{cs: []*netlist.Circuit{gen.MustBuild("s382")}}
	transport := &countingTransport{base: &http.Transport{}}
	cl := newClient(fake.URL, &http.Client{Transport: transport}, 1)
	ctx := context.Background()
	var tl tally
	send := func(r svcReq) svcRec {
		rec, err := cl.do(ctx, in, r, span{})
		tl.record(err)
		return rec
	}
	for i := 0; i < 3; i++ {
		send(svcReq{circuit: 0})
	}
	if tl.attempted != 3 || tl.failed != 3 {
		t.Fatalf("after 429, 504 and a dropped connection: %+v, want 3 attempted, 3 failed", tl)
	}
	if got := exchange.Load(); got != 3 {
		t.Fatalf("daemon saw %d exchanges for 3 requests: the client retried", got)
	}

	// The fast path: the first request uploads and misses, the second
	// sends only the fingerprint and hits memory.
	if rec := send(svcReq{circuit: 0, fast: true}); rec.cache != "miss" {
		t.Errorf("first upload: cache %q, want miss", rec.cache)
	}
	if rec := send(svcReq{circuit: 0, fast: true}); rec.cache != "hit" || transport.fastOK.Load() != 1 {
		t.Errorf("fingerprint request: cache %q, %d fast answers, want a hit and 1", rec.cache, transport.fastOK.Load())
	}
	// A restarted daemon answers the fingerprint with 428; the client
	// falls back to the body and the request still succeeds.
	real.Store(server.New(server.Config{}))
	if rec := send(svcReq{circuit: 0, fast: true}); rec.cache != "miss" || transport.fallbacks.Load() != 1 {
		t.Errorf("after restart: cache %q, %d fallbacks, want a miss and 1", rec.cache, transport.fallbacks.Load())
	}
	if tl.attempted != 6 || tl.failed != 3 || tl.errorRate() != 0.5 {
		t.Errorf("final tally %+v rate %v, want 6 attempted, 3 failed, 0.5", tl, tl.errorRate())
	}
}

func TestHistogramTotals(t *testing.T) {
	text := strings.Join([]string{
		`# HELP seqlearnd_queue_wait_seconds Time a compute request waited for a pool slot.`,
		`# TYPE seqlearnd_queue_wait_seconds histogram`,
		`seqlearnd_queue_wait_seconds_bucket{endpoint="learn",le="0.001"} 3`,
		`seqlearnd_queue_wait_seconds_sum{endpoint="learn"} 0.25`,
		`seqlearnd_queue_wait_seconds_count{endpoint="learn"} 3`,
		`seqlearnd_queue_wait_seconds_sum{endpoint="atpg"} 0.5`,
		`seqlearnd_queue_wait_seconds_count{endpoint="atpg"} 2`,
		`seqlearnd_slot_hold_seconds_sum{endpoint="atpg"} 9`,
	}, "\n")
	sum, count, err := histogramTotals(text, "seqlearnd_queue_wait_seconds")
	if err != nil || sum != 0.75 || count != 5 {
		t.Errorf("totals = %v, %v, %v; want 0.75, 5, nil", sum, count, err)
	}
}

func TestATPGCacheClass(t *testing.T) {
	for _, c := range []struct{ learn, tests, want string }{
		{"hit", "hit", "hit"},
		{"coalesced", "hit", "hit"},
		{"disk", "hit", "disk"},
		{"hit", "disk", "disk"},
		{"disk", "miss", "miss"},
		{"miss", "miss", "miss"},
	} {
		if got := atpgCache(c.learn, c.tests); got != c.want {
			t.Errorf("atpgCache(%s, %s) = %s, want %s", c.learn, c.tests, got, c.want)
		}
	}
}
