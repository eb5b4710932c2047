package atpg

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// expanded is the time-frame-expanded 5-valued circuit model, laid out as
// one flat search arena: every per-frame plane is indexed by the slot
// t*NumNodes+n, so a window of w frames uses the first w*NumNodes slots.
// Values are monotone within a search (X → known) and every write is
// recorded on the trail, so backtracking is a trail rollback and
// rollback(0) returns the arena to all-X: one arena, sized for the largest
// window, serves every window of every fault a worker searches without
// being reallocated or cleared.
type expanded struct {
	c  *netlist.Circuit
	nn int // c.NumNodes(): the stride between frames
	w  int // window size (frames 0..w-1)
	f  fault.Fault
	ri *relIndex

	mode Mode
	ties []learn.Tie

	// tainted marks nodes structurally reachable from the fault site
	// (through any number of frames): on those, learned facts constrain
	// only the good-machine component. It is computed once per fault;
	// taintList holds exactly the marked nodes, in BFS order, so the next
	// fault clears only those.
	tainted   []bool
	taintList []netlist.NodeID

	values []logic.V5 // [slot]
	forb   []uint8    // [slot] forbidden-value bits: bit0 = must-not-be-0, bit1 = must-not-be-1

	trail    []trailEntry
	conflict bool
	queue    []fnode // evaluation worklist
	inQueue  []bool  // [slot]: set exactly while the frame node is on queue
	// dpos lists, in trail order, the positions of the value entries
	// carrying a fault effect: the D-frontier's sources.
	dpos []int32
}

type fnode struct {
	t int
	n netlist.NodeID
}

type trailEntry struct {
	at      fnode
	forbBit uint8 // 0 for value entries; else the bit that was set
}

// good5 and faulty5 are V5.Good and V5.Faulty as tables; not5 is V5.Not5.
var (
	good5   = [5]logic.V{logic.X, logic.Zero, logic.One, logic.One, logic.Zero}
	faulty5 = [5]logic.V{logic.X, logic.Zero, logic.One, logic.Zero, logic.One}
	not5    = [5]logic.V5{logic.X5, logic.One5, logic.Zero5, logic.DBar, logic.D}
)

// reserve grows the planes to hold a window of the given number of
// frames; planes only grow, and fresh ones are clean. The arena must be
// clean.
func (e *expanded) reserve(frames int) {
	if n := frames * e.nn; n > len(e.values) {
		e.values = make([]logic.V5, n)
		e.forb = make([]uint8, n)
		e.inQueue = make([]bool, n)
	}
}

// taint marks every node reachable from start, crossing sequential
// elements any number of times.
func (e *expanded) taint(start netlist.NodeID) {
	for _, n := range e.taintList {
		e.tainted[n] = false
	}
	e.taintList = append(e.taintList[:0], start)
	e.tainted[start] = true
	for i := 0; i < len(e.taintList); i++ {
		for _, out := range e.c.Fanouts(e.taintList[i]) {
			if !e.tainted[out] {
				e.tainted[out] = true
				e.taintList = append(e.taintList, out)
			}
		}
	}
}

// init asserts ties and schedules the fault site, returning false on
// immediate conflict.
func (e *expanded) init() bool {
	for _, tie := range e.ties {
		for t := tie.Frame; t < e.w; t++ {
			at := fnode{t, tie.Node}
			switch {
			case tie.Node == e.f.Node:
				// Good component tied; faulty component stuck.
				if !e.assign(at, logic.Compose(tie.Val, e.f.Stuck)) {
					return false
				}
			case e.tainted[tie.Node]:
				// Only the good component is pinned; not representable —
				// skip (sound, loses a little pruning).
			default:
				if !e.assign(at, logic.Compose(tie.Val, tie.Val)) {
					return false
				}
			}
		}
	}
	return e.settle()
}

// assign sets a value, detects conflicts (including forbidden marks) and
// triggers consequences. X assignments are ignored.
func (e *expanded) assign(at fnode, v logic.V5) bool {
	if v == logic.X5 || e.conflict {
		return !e.conflict
	}
	k := e.slot(at)
	cur := e.values[k]
	if cur == v {
		return true
	}
	if cur != logic.X5 {
		e.conflict = true
		return false
	}
	// Forbidden-value check: a binary value hitting its forbidden mark is
	// a conflict discovered early (the paper's main pruning effect).
	g := good5[v]
	if e.forb[k]&forbBit[g] != 0 {
		e.conflict = true
		return false
	}
	e.values[k] = v
	if v.Faulted() {
		e.dpos = append(e.dpos, int32(len(e.trail)))
	}
	e.trail = append(e.trail, trailEntry{at: at})
	e.enqueueFanouts(at)
	if g.Known() {
		if !e.applyRelations(at, g) {
			return false
		}
	}
	return true
}

// forbBit[v] is the forb bit that forbids the value v; forbNotBit[v] the
// one that forbids its complement (0 for X).
var (
	forbBit    = [3]uint8{logic.X: 0, logic.Zero: 1, logic.One: 2}
	forbNotBit = [3]uint8{logic.X: 0, logic.Zero: 2, logic.One: 1}
)

func (e *expanded) enqueueFanouts(at fnode) {
	for _, out := range e.c.Fanouts(at.n) {
		nd := &e.c.Nodes[out]
		if nd.Kind == netlist.KindGate {
			e.push(fnode{at.t, out})
		} else if nd.Seq != nil && at.t+1 < e.w {
			e.push(fnode{at.t + 1, out})
		}
	}
	// A sequential node's own value change (capture) does not re-trigger
	// its frame; its fanouts were pushed above.
}

func (e *expanded) push(at fnode) {
	if k := e.slot(at); !e.inQueue[k] {
		e.inQueue[k] = true
		e.queue = append(e.queue, at)
	}
}

// slot is the index of a frame node in the flat planes.
func (e *expanded) slot(at fnode) int { return at.t*e.nn + int(at.n) }

// val reads node n's value in frame t.
func (e *expanded) val(t int, n netlist.NodeID) logic.V5 { return e.values[t*e.nn+int(n)] }

// applyRelations fires the learned same-frame relations for a good-known
// literal (paper Section 4).
func (e *expanded) applyRelations(at fnode, g logic.V) bool {
	if e.ri == nil {
		return true
	}
	// Only trust the antecedent when it is a pure good-machine fact: on
	// tainted nodes the composite good component is still the good
	// machine's value, so the antecedent always holds for the good
	// machine.
	lit := imply.Lit{Node: at.n, Val: g}
	if e.mode == ModeForbidden {
		// applyOne and markForbidden inlined for the common case: most
		// targets are already marked, so test the mark and the
		// good-machine contradiction here and call markForbidden only to
		// set a new mark. Testing the mark first is exact: no slot ever
		// holds a good value together with the mark forbidding it (assign
		// and markForbidden each refuse the second), so a marked target
		// cannot contradict. markForbidden's own value check cannot fire
		// from here either: that value is the contradiction.
		base := at.t * e.nn
		for _, tgt := range e.ri.of(lit) {
			if at.t < tgt.depth {
				continue // not enough history in this window
			}
			k := base + int(tgt.lit.Node)
			if e.forb[k]&forbNotBit[tgt.lit.Val] != 0 {
				continue // already marked
			}
			if cg := good5[e.values[k]]; cg != logic.X && cg != tgt.lit.Val {
				e.conflict = true // good-machine contradiction
				return false
			}
			if !e.markForbidden(fnode{at.t, tgt.lit.Node}, tgt.lit.Val.Not()) {
				return false
			}
		}
	} else {
		for _, tgt := range e.ri.of(lit) {
			if at.t < tgt.depth {
				continue // not enough history in this window
			}
			if !e.applyOne(fnode{at.t, tgt.lit.Node}, tgt.lit.Val) {
				return false
			}
		}
	}
	// Cross-frame relations (window extension): the consequent lands in a
	// different frame; the in-window bound implies enough history for the
	// direct relations learning stores.
	for _, tgt := range e.ri.crossOf(lit) {
		ft := at.t + tgt.dt
		if ft < 0 || ft >= e.w {
			continue
		}
		if !e.applyOne(fnode{ft, tgt.lit.Node}, tgt.lit.Val) {
			return false
		}
	}
	return true
}

// applyOne fires a single implied literal at a frame node according to the
// learning-use mode.
func (e *expanded) applyOne(m fnode, w logic.V) bool {
	if cg := good5[e.values[e.slot(m)]]; cg.Known() && cg != w {
		e.conflict = true // good-machine contradiction
		return false
	}
	switch e.mode {
	case ModeKnown, ModeNoLearning:
		// Assert the implied value outright on untainted nodes (good
		// == faulty there).
		if !e.tainted[m.n] {
			if !e.assign(m, logic.Compose(w, w)) {
				return false
			}
		}
	case ModeForbidden:
		if !e.markForbidden(m, w.Not()) {
			return false
		}
	}
	return true
}

// markForbidden records "node must not be v" and propagates the mark as a
// pseudo-value ("Forbidden 0 is implied as 1, and forbidden 1 is implied
// as 0").
func (e *expanded) markForbidden(at fnode, v logic.V) bool {
	if e.conflict {
		return false
	}
	k := e.slot(at)
	bit := forbBit[v]
	if e.forb[k]&bit != 0 {
		return true // already marked
	}
	// A known value equal to the newly forbidden one is a conflict.
	if good5[e.values[k]] == v {
		e.conflict = true
		return false
	}
	e.forb[k] |= bit
	e.trail = append(e.trail, trailEntry{at: at, forbBit: bit})
	if e.forb[k] == 3 {
		e.conflict = true // nothing left for the node to be
		return false
	}
	e.propagateForbidden(at, e.forb[k])
	return !e.conflict
}

// propagateForbidden pushes the marks forb of a frame node backward
// through unique-justification structures and both ways through
// buffers/inverters and flip-flops.
func (e *expanded) propagateForbidden(at fnode, forb uint8) {
	nd := &e.c.Nodes[at.n]
	mustNot0 := forb&1 != 0 // node must be 1 if binary
	mustNot1 := forb&2 != 0

	markPin := func(t int, p netlist.Pin, v logic.V) {
		if p.Inv {
			v = v.Not()
		}
		e.markForbidden(fnode{t, p.Node}, v)
	}

	switch nd.Kind {
	case netlist.KindGate:
		fanin := e.c.Fanin(at.n)
		switch nd.Op {
		case logic.OpBuf:
			if mustNot0 {
				markPin(at.t, fanin[0], logic.Zero)
			}
			if mustNot1 {
				markPin(at.t, fanin[0], logic.One)
			}
		case logic.OpNot:
			if mustNot0 {
				markPin(at.t, fanin[0], logic.One)
			}
			if mustNot1 {
				markPin(at.t, fanin[0], logic.Zero)
			}
		case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
			ctrl, _ := nd.Op.Controlling()
			controlled := nd.Op.ControlledOutput()
			// "Must not be the controlled output" means no input may
			// carry the controlling value.
			forbidControlled := (controlled == logic.Zero && mustNot0) ||
				(controlled == logic.One && mustNot1)
			if forbidControlled {
				for _, p := range fanin {
					markPin(at.t, p, ctrl)
				}
			}
		}
	case netlist.KindDFF, netlist.KindLatch:
		si := nd.Seq
		// A mark on the output becomes a mark on the D pin one frame
		// earlier, unless set/reset or extra ports could override.
		if at.t > 0 && !si.HasSet() && !si.HasReset() && len(si.Ports) == 0 {
			if mustNot0 {
				markPin(at.t-1, si.D, logic.Zero)
			}
			if mustNot1 {
				markPin(at.t-1, si.D, logic.One)
			}
		}
	}
}

// settle evaluates the worklist to fixpoint.
func (e *expanded) settle() bool {
	for len(e.queue) > 0 && !e.conflict {
		at := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.inQueue[e.slot(at)] = false
		e.eval(at)
	}
	return !e.conflict
}

// eval computes the value of a gate or a sequential capture.
func (e *expanded) eval(at fnode) {
	nd := &e.c.Nodes[at.n]
	switch nd.Kind {
	case netlist.KindGate:
		base := at.t * e.nn
		v := evalGate5(nd.Op, e.c.Fanin(at.n), e.values[base:base+e.nn])
		if at.n == e.f.Node {
			v = e.forceFault(v)
		}
		e.assign(at, v)
	case netlist.KindDFF, netlist.KindLatch:
		if at.t == 0 {
			return // unknown initial state
		}
		v := e.capture(at.t-1, nd.Seq)
		if at.n == e.f.Node {
			v = e.forceFault(v)
		}
		e.assign(at, v)
	}
}

// ctrlBits[c][v] describes the V5 v against the controlling value Zero
// (c = 0) or One (c = 1): whether each machine carries it, and whether v
// is X.
const (
	goodCtrl   = 1
	faultyCtrl = 2
	bothCtrl   = goodCtrl | faultyCtrl
	anyX       = 4
)

var ctrlBits = [2][5]uint8{
	{anyX, bothCtrl, 0, faultyCtrl, goodCtrl}, // X, 0, 1, D, D'
	{anyX, 0, bothCtrl, goodCtrl, faultyCtrl},
}

// evalGate5 evaluates op over the fanin pins read from one frame's values,
// with the good and faulty machines evaluated side by side: exactly
// logic.Eval5Slice over the pin values, without building them. A V5 is X
// in one machine iff it is X in both, so one X input makes both machines'
// non-controlled results X.
func evalGate5(op logic.Op, fanin []netlist.Pin, vals []logic.V5) logic.V5 {
	switch op {
	case logic.OpBuf, logic.OpNot:
		v := vals[fanin[0].Node]
		if fanin[0].Inv != (op == logic.OpNot) {
			v = not5[v]
		}
		return v
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		// acc gathers ctrlBits over the pins; a pin inversion swaps which
		// value is controlling, so it flips the table.
		or := op == logic.OpOr || op == logic.OpNor
		var acc uint8
		for _, p := range fanin {
			tab := &ctrlBits[0]
			if p.Inv != or {
				tab = &ctrlBits[1]
			}
			if acc |= tab[vals[p.Node]]; acc&bothCtrl == bothCtrl {
				break
			}
		}
		if acc&bothCtrl != bothCtrl && acc&anyX != 0 {
			return logic.X5 // some machine is not controlled and sees an X
		}
		// Each machine yields the controlled output if controlled, its
		// complement otherwise.
		out := op.ControlledOutput()
		g, f := out, out
		if acc&goodCtrl == 0 {
			g = out.Not()
		}
		if acc&faultyCtrl == 0 {
			f = out.Not()
		}
		return logic.Compose(g, f)
	case logic.OpXor, logic.OpXnor:
		g, f := op == logic.OpXnor, op == logic.OpXnor
		for _, p := range fanin {
			v := vals[p.Node]
			if v == logic.X5 {
				return logic.X5
			}
			g = g != (good5[v] == logic.One) != p.Inv
			f = f != (faulty5[v] == logic.One) != p.Inv
		}
		return logic.Compose(logic.FromBool(g), logic.FromBool(f))
	case logic.OpConst0:
		return logic.Zero5
	case logic.OpConst1:
		return logic.One5
	}
	panic(fmt.Sprintf("atpg: evalGate5 of unknown op %d", op))
}

// forceFault recomposes a value at the fault site: the faulty component is
// stuck, the good component follows the evaluation.
func (e *expanded) forceFault(v logic.V5) logic.V5 {
	g := good5[v]
	if !g.Known() {
		return logic.X5
	}
	return logic.Compose(g, e.f.Stuck)
}

// capture computes the 5-valued next-state of a sequential element from
// frame t, mirroring the functional simulator's pessimistic semantics in
// both machines.
func (e *expanded) capture(t int, si *netlist.SeqInfo) logic.V5 {
	vals := e.values[t*e.nn : (t+1)*e.nn]
	one := func(side *[5]logic.V) logic.V {
		read3 := func(p netlist.Pin) logic.V {
			v := side[vals[p.Node]]
			if p.Inv {
				v = v.Not()
			}
			return v
		}
		q := read3(si.D)
		for _, pt := range si.Ports {
			en := read3(pt.Enable)
			d := read3(pt.Data)
			switch en {
			case logic.One:
				q = d
			case logic.X:
				if q != d {
					q = logic.X
				}
			}
		}
		if si.HasReset() {
			switch read3(si.ResetNet) {
			case logic.One:
				q = logic.Zero
			case logic.X:
				if q != logic.Zero {
					q = logic.X
				}
			}
		}
		if si.HasSet() {
			switch read3(si.SetNet) {
			case logic.One:
				q = logic.One
			case logic.X:
				if q != logic.One {
					q = logic.X
				}
			}
		}
		return q
	}
	g := one(&good5)
	f := one(&faulty5)
	if !g.Known() || !f.Known() {
		return logic.X5
	}
	return logic.Compose(g, f)
}

// assignPI applies a decision or implication on a primary input.
func (e *expanded) assignPI(at fnode, v logic.V) bool {
	val := logic.Compose(v, v)
	if at.n == e.f.Node {
		val = logic.Compose(v, e.f.Stuck)
	}
	if !e.assign(at, val) {
		return false
	}
	return e.settle()
}

// mark returns the current trail position for later rollback.
func (e *expanded) mark() int { return len(e.trail) }

// rollback undoes trail entries past the mark and clears conflict state;
// rollback(0) leaves the arena clean for the next window or fault.
func (e *expanded) rollback(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		te := e.trail[i]
		if te.forbBit != 0 {
			e.forb[e.slot(te.at)] &^= te.forbBit
		} else {
			e.values[e.slot(te.at)] = logic.X5
		}
	}
	e.trail = e.trail[:mark]
	for len(e.dpos) > 0 && int(e.dpos[len(e.dpos)-1]) >= mark {
		e.dpos = e.dpos[:len(e.dpos)-1]
	}
	e.conflict = false
	// Only entries still queued carry a flag: settle clears each one it
	// pops, so what a conflict left behind is exactly the queue.
	for _, at := range e.queue {
		e.inQueue[e.slot(at)] = false
	}
	e.queue = e.queue[:0]
}

// detected reports whether a fault effect has reached a primary output.
func (e *expanded) detected() bool {
	for t := 0; t < e.w; t++ {
		for _, po := range e.c.POs {
			if e.values[t*e.nn+int(po.Pin.Node)].Faulted() {
				return true
			}
		}
	}
	return false
}
