// Package propagate implements the paper's time-propagation scheme (§4):
// starting from each routine's sampled self time, execution time flows
// from descendants to ancestors along the call graph's arcs,
//
//	T_r = S_r + Σ_{r CALLS e} T_e × C_e^r / C_e
//
// where C_e is the number of calls to e and C_e^r the calls from r to e:
// each caller is accountable for its share of the callee's total time, in
// proportion to how often it called.
//
// Nodes are visited in the topological order assigned by package scc
// (callees before callers), so "execution time can be propagated from
// descendants to ancestors after a single traversal of each arc".
//
// Cycles found by scc are treated as single entities: member self times
// sum, calls into the cycle share the cycle's total, intra-cycle arcs are
// listed but propagate nothing, and self-recursive arcs never propagate
// (§4: "time is not propagated from one member of a cycle to another").
// Static arcs carry count zero and therefore propagate nothing. Time
// attributed to a spontaneous caller is computed (for display) but flows
// to no one.
package propagate

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/obs"
	"repro/internal/scc"
)

// Run performs propagation over an analyzed graph (scc.Analyze must have
// been called). It fills in Node.ChildTicks, Cycle.ChildTicks, and the
// per-arc PropSelf/PropChild fields. Run is idempotent.
func Run(g *callgraph.Graph) {
	_ = RunCtx(context.Background(), g, 1)
}

// RunCtx is Run with cancellation and a worker-pool width. jobs <= 1 is
// the exact serial Run. At higher widths the condensation DAG is cut
// into depth levels — a unit (node, or collapsed cycle) sits one level
// above its deepest callee, so the topological numbers from scc already
// certify the schedule — and units within a level compute concurrently.
//
// The parallel result is bit-identical to the serial one for every
// input: each caller folds its incoming propagated shares from a
// per-unit application list laid out in the serial traversal's exact
// order, so every floating-point accumulator sees the same additions in
// the same sequence regardless of jobs or goroutine scheduling.
func RunCtx(ctx context.Context, g *callgraph.Graph, jobs int) error {
	for _, n := range g.Nodes() {
		n.ChildTicks = 0
		for _, a := range n.In {
			a.PropSelf, a.PropChild = 0, 0
		}
	}
	for _, c := range g.Cycles {
		c.ChildTicks = 0
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// More workers than schedulable CPUs is pure overhead, and the
	// application-list design makes the scheduled path bit-identical to
	// the serial one at any width, so clamping cannot change output —
	// on a single-CPU host every width runs the cheaper serial path.
	jobs = min(jobs, runtime.GOMAXPROCS(0))
	if jobs <= 1 {
		doneCycle := make([]bool, len(g.Cycles)+1)
		for _, n := range scc.TopoOrder(g) {
			if c := n.Cycle; c != nil {
				if doneCycle[c.Number] {
					continue
				}
				doneCycle[c.Number] = true
				distributeCycle(c)
				continue
			}
			distributeNode(n)
		}
		return nil
	}
	return runLevels(ctx, g, jobs)
}

// distributeNode shares a node's self+child time among its incoming
// arcs in proportion to their counts, accumulating into each caller's
// unit (or nowhere, for spontaneous arcs).
func distributeNode(n *callgraph.Node) {
	calls := n.Calls()
	if calls <= 0 {
		return
	}
	self, child := n.SelfTicks, n.ChildTicks
	for _, a := range n.In {
		if a.Self() || a.Count <= 0 {
			continue // self-recursion and static arcs never propagate
		}
		frac := float64(a.Count) / float64(calls)
		a.PropSelf = self * frac
		a.PropChild = child * frac
		if a.Caller == nil {
			continue // spontaneous: computed for display, flows nowhere
		}
		if pc := a.Caller.Cycle; pc != nil {
			pc.ChildTicks += a.PropSelf + a.PropChild
		} else {
			a.Caller.ChildTicks += a.PropSelf + a.PropChild
		}
	}
}

// distributeCycle is distributeNode for a collapsed cycle: the members'
// summed time is shared among the arcs entering the cycle from outside.
func distributeCycle(c *callgraph.Cycle) {
	calls := c.ExternalCalls()
	if calls <= 0 {
		return
	}
	self, child := c.SelfTicks(), c.ChildTicks
	for _, m := range c.Members {
		for _, a := range m.In {
			if a.IntraCycle() || a.Self() || a.Count <= 0 {
				continue
			}
			frac := float64(a.Count) / float64(calls)
			a.PropSelf = self * frac
			a.PropChild = child * frac
			if a.Caller == nil {
				continue
			}
			if pc := a.Caller.Cycle; pc != nil {
				pc.ChildTicks += a.PropSelf + a.PropChild
			} else {
				a.Caller.ChildTicks += a.PropSelf + a.PropChild
			}
		}
	}
}

// unit is one propagation entity: a collapsed cycle or a plain node.
type unit struct {
	node  *callgraph.Node // nil when cycle != nil
	cycle *callgraph.Cycle
	depth int32
}

// sched is the level schedule plus the application lists that make the
// parallel run bit-exact. Everything is indexed by unit number (units
// are stored in topological order) via Node.ID and Cycle.Number — no
// pointer-keyed maps.
type sched struct {
	units []unit
	// appList[appHead[u]:appHead[u+1]] holds the arcs whose propagated
	// shares accumulate into unit u's ChildTicks, in exactly the order
	// the serial traversal would apply them (callee units in topological
	// order, arcs in each callee's filter order). Folding this list is
	// therefore the same floating-point addition sequence as the serial
	// run, independent of scheduling.
	appHead []int32
	appList []*callgraph.Arc
}

// apply computes unit ui completely: fold its application list into its
// ChildTicks (every arc in the list was finalized by a callee unit in a
// strictly earlier level), then write this unit's shares onto its own
// incoming arcs. Units are disjoint in what they write, so any set of
// same-level units may run concurrently.
func (s *sched) apply(ui int32) {
	u := &s.units[ui]
	if lo, hi := s.appHead[ui], s.appHead[ui+1]; lo != hi {
		t := 0.0
		for _, a := range s.appList[lo:hi] {
			t += a.PropSelf + a.PropChild
		}
		if u.cycle != nil {
			u.cycle.ChildTicks = t
		} else {
			u.node.ChildTicks = t
		}
	}
	if c := u.cycle; c != nil {
		calls := c.ExternalCalls()
		if calls <= 0 {
			return
		}
		self, child := c.SelfTicks(), c.ChildTicks
		for _, m := range c.Members {
			for _, a := range m.In {
				if a.IntraCycle() || a.Self() || a.Count <= 0 {
					continue
				}
				frac := float64(a.Count) / float64(calls)
				a.PropSelf = self * frac
				a.PropChild = child * frac
			}
		}
		return
	}
	n := u.node
	calls := n.Calls()
	if calls <= 0 {
		return
	}
	self, child := n.SelfTicks, n.ChildTicks
	for _, a := range n.In {
		if a.Self() || a.Count <= 0 {
			continue
		}
		frac := float64(a.Count) / float64(calls)
		a.PropSelf = self * frac
		a.PropChild = child * frac
	}
}

// callerUnit resolves the unit an arc accumulates into, or -1 for arcs
// that flow nowhere (spontaneous or static).
func callerUnit(a *callgraph.Arc, unitOf, cycleUnit []int32) int32 {
	if a.Count <= 0 || a.Caller == nil {
		return -1
	}
	if pc := a.Caller.Cycle; pc != nil {
		return cycleUnit[pc.Number]
	}
	return unitOf[a.Caller.ID]
}

// runLevels is the parallel schedule behind RunCtx.
func runLevels(ctx context.Context, g *callgraph.Graph, jobs int) error {
	nodes := g.Nodes()
	s := &sched{units: make([]unit, 0, len(nodes))}
	// Units in topological order (callees first), with the unit of every
	// node recorded by its ID so arcs can be chased to their unit.
	unitOf := make([]int32, len(nodes))
	cycleUnit := make([]int32, len(g.Cycles)+1)
	for i := range cycleUnit {
		cycleUnit[i] = -1
	}
	topo := scc.TopoOrder(g)
	for _, n := range topo {
		if c := n.Cycle; c != nil {
			if u := cycleUnit[c.Number]; u >= 0 {
				unitOf[n.ID] = u
				continue
			}
			ui := int32(len(s.units))
			cycleUnit[c.Number] = ui
			unitOf[n.ID] = ui
			s.units = append(s.units, unit{cycle: c})
			continue
		}
		unitOf[n.ID] = int32(len(s.units))
		s.units = append(s.units, unit{node: n})
	}
	nu := len(s.units)

	// A unit's depth is one past its deepest callee unit: everything a
	// unit calls is finished before the unit's own total is read. The
	// topological order makes this a single pass. In the same sweep,
	// count each caller unit's incoming applications so the application
	// lists can be laid out as one contiguous CSR arena.
	appCount := make([]int32, nu+1)
	maxDepth := int32(0)
	one := make([]*callgraph.Node, 1) // reusable member list for plain nodes
	for ui := range s.units {
		u := &s.units[ui]
		members := one
		if u.cycle != nil {
			members = u.cycle.Members
		} else {
			one[0] = u.node
		}
		for _, m := range members {
			for _, a := range m.Out {
				if a.Self() || a.IntraCycle() {
					continue
				}
				cu := unitOf[a.Callee.ID]
				if c := a.Callee.Cycle; c != nil {
					cu = cycleUnit[c.Number]
				}
				if d := s.units[cu].depth + 1; d > u.depth {
					u.depth = d
				}
			}
			for _, a := range m.In {
				if a.Self() || a.IntraCycle() {
					continue
				}
				if cu := callerUnit(a, unitOf, cycleUnit); cu >= 0 {
					appCount[cu+1]++
				}
			}
		}
		if u.depth > maxDepth {
			maxDepth = u.depth
		}
	}
	s.appHead = appCount
	for i := 1; i <= nu; i++ {
		s.appHead[i] += s.appHead[i-1]
	}
	// Fill pass walks units (hence callee filter lists) in topological
	// order, appending each arc to its caller unit's slot — per caller
	// this reproduces the serial application order exactly.
	s.appList = make([]*callgraph.Arc, s.appHead[nu])
	next := make([]int32, nu)
	copy(next, s.appHead[:nu])
	for ui := range s.units {
		u := &s.units[ui]
		members := one
		if u.cycle != nil {
			members = u.cycle.Members
		} else {
			one[0] = u.node
		}
		for _, m := range members {
			for _, a := range m.In {
				if a.Self() || a.IntraCycle() {
					continue
				}
				if cu := callerUnit(a, unitOf, cycleUnit); cu >= 0 {
					s.appList[next[cu]] = a
					next[cu]++
				}
			}
		}
	}

	// Bucket units into levels (counting sort keeps them in topological
	// order within a level, though correctness no longer depends on it).
	levelHead := make([]int32, maxDepth+2)
	for ui := range s.units {
		levelHead[s.units[ui].depth+1]++
	}
	for d := 1; d < len(levelHead); d++ {
		levelHead[d] += levelHead[d-1]
	}
	levelUnits := make([]int32, nu)
	fill := make([]int32, maxDepth+1)
	copy(fill, levelHead[:maxDepth+1])
	for ui := range s.units {
		d := s.units[ui].depth
		levelUnits[fill[d]] = int32(ui)
		fill[d]++
	}

	// The level schedule is the interesting scheduling fact about the
	// parallel pipeline: publish its shape as gauges. Levels get no span
	// of their own, so trace size does not grow with the DAG's depth.
	tr := obs.FromContext(ctx)
	tr.Gauge("propagate.levels").Set(int64(maxDepth) + 1)
	tr.Gauge("propagate.units").Set(int64(nu))
	tr.Gauge("propagate.jobs").Set(int64(jobs))

	for depth := int32(0); depth <= maxDepth; depth++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		level := levelUnits[levelHead[depth]:levelHead[depth+1]]
		// Narrow levels (deep chains degenerate to width 1) run inline:
		// spawning goroutines per unit would dominate the work.
		if workers := min(jobs, len(level)); workers > 1 && len(level) >= 2*workers {
			// Workers claim contiguous chunks off a shared cursor, so a
			// million-unit level costs ~8·workers atomic ops, not a
			// channel send per unit.
			chunk := int32(len(level)/(workers*8) + 1)
			var cursor atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						hi := cursor.Add(chunk)
						lo := hi - chunk
						if lo >= int32(len(level)) {
							return
						}
						if hi > int32(len(level)) {
							hi = int32(len(level))
						}
						for _, ui := range level[lo:hi] {
							s.apply(ui)
						}
					}
				}()
			}
			wg.Wait()
		} else {
			for _, ui := range level {
				s.apply(ui)
			}
		}
	}
	return nil
}

// CheckConservation verifies the propagation invariant: every unit's
// total time is either retained (units nothing calls) or fully
// distributed to parents and spontaneous shares. It returns the absolute
// discrepancy between (retained + spontaneous) and total self time; a
// correct run returns a value within floating-point noise of zero. Used
// by tests and the experiment harness.
func CheckConservation(g *callgraph.Graph) float64 {
	var retained, selfSum, spont float64
	seen := make(map[*callgraph.Cycle]bool)
	for _, n := range g.Nodes() {
		if c := n.Cycle; c != nil {
			if seen[c] {
				continue
			}
			seen[c] = true
			selfSum += c.SelfTicks()
			if c.ExternalCalls() == 0 {
				retained += c.TotalTicks()
			}
			continue
		}
		selfSum += n.SelfTicks
		if n.Calls() == 0 {
			retained += n.TotalTicks()
		}
	}
	for _, a := range g.Spontaneous {
		spont += a.PropSelf + a.PropChild
	}
	return math.Abs(retained + spont - selfSum)
}
