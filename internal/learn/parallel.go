package learn

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// runParallel dispatches fn(w, i) for i in [0, n) over Options.Parallelism
// workers. w is the worker's index in [0, Parallelism): it selects the
// worker-private engine (l.packed[w], or l.engines[w] on the scalar
// route), so no two concurrent invocations share one. Items are handed out
// by an atomic counter, so the assignment of items to workers is
// arbitrary — callers must write only to item-private shards and merge
// them in item order afterwards. With one worker (Parallelism: 1) the
// sweep runs inline on the caller's goroutine.
//
// A fired Options.Cancel stops the dispatch at the next item boundary —
// sweeps of a canceled run end promptly with unprocessed items left
// zero-valued, which is fine because a canceled Result is discard-only.
func (l *learner) runParallel(n int, fn func(w, i int)) {
	workers := min(l.opt.Parallelism, n)
	if workers <= 1 {
		for i := 0; i < n && !l.canceled(); i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !l.canceled() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// setTies installs the tie constants on every worker engine of the route's
// pool. The closure under constant propagation is computed once per pool
// and copied to the clones.
func (l *learner) setTies(ties map[netlist.NodeID]logic.V) {
	l.curTies = ties
	if l.scalar {
		l.engines[0].SetTies(ties)
		for _, e := range l.engines[1:] {
			e.CopyTies(l.engines[0])
		}
		return
	}
	l.packed[0].SetTies(ties)
	for _, e := range l.packed[1:] {
		e.CopyTies(l.packed[0])
	}
}
