package server

// Admission-control tests on the channel pool (run under -race in CI). The
// pool slots are taken directly through acquire — exactly what a
// long-running compute request holds — so the tests control occupancy
// without burning CPU on real learning or ATPG runs.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
)

// holdSlot takes one pool slot as a compute request would and returns its
// release func. A slot that does not come free within 5s fails the test
// (a leaked slot would otherwise hang it).
func holdSlot(t *testing.T, srv *Server) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	release, ok := srv.acquire(rec, ctx, "learn")
	if !ok {
		t.Fatalf("no pool slot: %d %s", rec.Code, rec.Body)
	}
	return release
}

// parkedWaiters counts goroutines blocked in srv's queued select in
// acquire: requests that hold a queue token and are waiting for a slot.
// The receiver address in each frame keeps other servers' waiters out.
func parkedWaiters(srv *Server) int {
	frame := fmt.Sprintf("(*Server).acquire(%p", srv)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, frame) {
			parked++
		}
	}
	return parked
}

// waitParked blocks until exactly n waiters are parked in srv's queue.
func waitParked(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedWaiters(srv) != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked waiters = %d, want %d", parkedWaiters(srv), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// grant is a queued waiter's admission: its arrival index and the slot
// it now holds.
type grant struct {
	idx     int
	release func()
}

// enqueue starts a waiter that reports its grant on granted (or its error
// status on failed) and returns once it is parked in the queue.
func enqueue(t *testing.T, srv *Server, ctx context.Context, idx int, granted chan<- grant, failed chan<- int) {
	t.Helper()
	before := parkedWaiters(srv)
	go func() {
		rec := httptest.NewRecorder()
		release, ok := srv.acquire(rec, ctx, "learn")
		if !ok {
			failed <- rec.Code
			return
		}
		granted <- grant{idx, release}
	}()
	waitParked(t, srv, before+1)
}

// TestAdmissionQueueFullSheds: with every slot busy and the queue at its
// bound, a new request is answered 429 with Retry-After at once and takes
// no queue state; the queued requests are still served afterwards.
func TestAdmissionQueueFullSheds(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	held := holdSlot(t, srv)
	granted := make(chan grant, 2)
	failed := make(chan int, 2)
	enqueue(t, srv, context.Background(), 0, granted, failed)
	enqueue(t, srv, context.Background(), 1, granted, failed)

	resp, err := http.Post(ts.URL+"/v1/learn", "text/plain", strings.NewReader(benchText(t, circuits.Figure2())))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429: %s", resp.StatusCode, data)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 300 {
		t.Fatalf("Retry-After = %q, want an integer in [1,300]", resp.Header.Get("Retry-After"))
	}
	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.Shed != 1 || st.Queued != 2 || st.InFlight != 1 {
		t.Fatalf("stats after shed = %+v, want shed 1, queued 2, in_flight 1", st)
	}

	held()
	for i := 0; i < 2; i++ {
		select {
		case g := <-granted:
			g.release()
		case code := <-failed:
			t.Fatalf("queued request failed with %d", code)
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never admitted")
		}
	}
	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))
}

// TestAdmissionCancelWhileQueuedLeaksNoSlot: a waiter whose deadline
// expires answers 504, one whose client goes away answers 503, and after
// many such rounds the pool still runs exactly MaxConcurrent requests at
// once with an empty queue.
func TestAdmissionCancelWhileQueuedLeaksNoSlot(t *testing.T) {
	const slots, rounds = 2, 40
	srv := New(Config{MaxConcurrent: slots, MaxQueue: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	held := []func(){holdSlot(t, srv), holdSlot(t, srv)}
	granted := make(chan grant, 1)
	failed := make(chan int, 1)
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			// Deadline expiry over HTTP: the request queues, its timeout=
			// passes, and the daemon answers 504.
			q := LearnParams{Timeout: 5 * time.Millisecond}.Query()
			resp, data := postReq(t, ts, "/v1/learn", q, body, nil)
			if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(data), "while queued") {
				t.Fatalf("round %d: expired waiter answered %d: %s", r, resp.StatusCode, data)
			}
			continue
		}
		// Client disconnect: the waiter is parked, then its context ends.
		ctx, cancel := context.WithCancel(context.Background())
		enqueue(t, srv, ctx, r, granted, failed)
		cancel()
		select {
		case code := <-failed:
			if code != http.StatusServiceUnavailable {
				t.Fatalf("round %d: abandoned waiter answered %d, want 503", r, code)
			}
		case <-granted:
			t.Fatalf("round %d: abandoned waiter was granted a slot past a full pool", r)
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: abandoned waiter never returned", r)
		}
	}

	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.TimedOut != rounds/2 || st.Abandoned != rounds/2 || st.Queued != 0 || st.InFlight != slots {
		t.Fatalf("stats after %d rounds = %+v", rounds, st)
	}
	for _, release := range held {
		release()
	}

	// Every slot is free again, and there are no more than MaxConcurrent:
	// with slots held, a further request can only wait.
	for i := 0; i < slots; i++ {
		defer holdSlot(t, srv)()
	}
	if got := srv.inFlight.Load(); got != slots {
		t.Fatalf("in flight = %d, want %d", got, slots)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	if release, ok := srv.acquire(rec, ctx, "learn"); ok {
		release()
		t.Fatalf("slot %d granted beyond MaxConcurrent=%d", slots+1, slots)
	}
	if len(srv.queue) != 0 {
		t.Fatalf("queue tokens leaked: %d", len(srv.queue))
	}
}

// TestAdmissionArrivalOrder: queued requests are admitted in the order
// they arrived, one per freed slot.
func TestAdmissionArrivalOrder(t *testing.T) {
	const waiters = 6
	srv := New(Config{MaxConcurrent: 1, MaxQueue: waiters})
	held := holdSlot(t, srv)
	granted := make(chan grant, waiters)
	failed := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		enqueue(t, srv, context.Background(), i, granted, failed)
	}

	release := held
	for want := 0; want < waiters; want++ {
		release()
		select {
		case g := <-granted:
			if g.idx != want {
				t.Fatalf("grant %d went to waiter %d: arrival order broken", want, g.idx)
			}
			release = g.release
		case code := <-failed:
			t.Fatalf("waiter failed with %d", code)
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d never arrived", want)
		}
	}
	release()
	if srv.inFlight.Load() != 0 || srv.queued.Load() != 0 {
		t.Fatalf("pool not drained: in flight %d, queued %d", srv.inFlight.Load(), srv.queued.Load())
	}
}
