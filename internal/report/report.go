// Package report renders profile data for people: the flat profile
// (paper §5.1) and the call graph profile (§5.2, Figure 4).
//
// Every renderer consumes the serializable profile model
// (internal/model) rather than the pointer-based call graph: analysis
// produces one model.Profile (model.Build, invoked by core.Run) and
// presentation reads only that. The split mirrors the paper's own
// separation of post-processing (§4) from presentation (§5) and is
// what makes the same data renderable as text, DOT, or JSON.
//
// The flat profile lists every routine exercised by the execution with
// its call count and the seconds it is itself accountable for, sorted by
// decreasing self time; routines never called are listed separately "to
// verify that nothing important is omitted by this execution". The
// individual times sum to the total execution time.
//
// The call graph profile lists one entry per routine — "a window into
// the call graph" — sorted by self-plus-descendant time. Each entry
// shows the routine's parents above it (with the self and descendant
// time the routine propagates to each, and the fraction of calls each
// parent accounts for) and its children below it (with the time each
// child passes up and the fraction of the child's calls the routine
// makes). Cycles appear as single entities whose members are listed in
// place of children; self-recursive calls are split out of the call
// count ("called+self") because only outside calls propagate time.
//
// The retrospective's filtering features are provided as Options: a
// minimum-%time threshold ("show only hot functions") and a focus set
// ("only parts of the graph containing certain methods").
package report

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Options controls both reports.
type Options struct {
	// MinPercent suppresses call-graph entries whose total time is below
	// this percentage of the run, and flat-profile rows with zero time
	// below it (0 shows everything).
	MinPercent float64
	// Focus, when non-empty, restricts the call-graph profile to entries
	// for the named routines, their direct parents, and their direct
	// children.
	Focus []string
	// Exclude suppresses the named routines' entries and flat-profile
	// rows (gprof's -E display exclusion). Their time still propagates:
	// exclusion is presentation-only.
	Exclude []string
	// NoHeaders omits the explanatory column headers.
	NoHeaders bool
}

// filter is Options compiled against one profile: membership tests are
// set lookups, so large -E or focus lists stay O(1) per routine
// instead of rescanning the option slices at every node of the walk.
type filter struct {
	exclude map[string]bool
	// focus is nil when no focus is requested; otherwise it marks, by
	// routine position, the focused routines plus their direct parents
	// and children.
	focus []bool
}

// excludeSet compiles the -E list.
func (o *Options) excludeSet() map[string]bool {
	if len(o.Exclude) == 0 {
		return nil
	}
	set := make(map[string]bool, len(o.Exclude))
	for _, name := range o.Exclude {
		set[name] = true
	}
	return set
}

// compile precomputes the option sets against a profile view.
func (v *view) compile(o *Options) filter {
	f := filter{exclude: o.excludeSet()}
	if len(o.Focus) > 0 {
		f.focus = make([]bool, len(v.m.Routines))
		for _, name := range o.Focus {
			p, ok := v.m.RoutineIndex(name)
			if !ok {
				continue
			}
			f.focus[p] = true
			for _, a := range v.inArcs(int32(p)) {
				if from := v.from[a]; from >= 0 {
					f.focus[from] = true
				}
			}
			for _, a := range v.outArcs(int32(p)) {
				f.focus[v.to[a]] = true
			}
		}
	}
	return f
}

// view is the per-render index over a profile. Routines are named by
// their position in m.Routines and arcs by theirs in m.Arcs: every arc
// endpoint is resolved once, so the walk itself never hashes a name.
type view struct {
	m *model.Profile
	// from and to are each arc's endpoint positions; from is -1 for a
	// spontaneous arc.
	from, to []int32
	// Routine r's incoming arcs are in[inOff[r]:inOff[r+1]] and its
	// outgoing ones out[outOff[r]:outOff[r+1]], both in the model's arc
	// order, which the cycle entries' tie-breaking depends on.
	inOff, in   []int32
	outOff, out []int32
	// members holds each cycle's member positions, parallel to m.Cycles.
	members [][]int32
	// listing holds the call-graph entries in index order.
	listing []listEntry
	// parents and children are scratch lists reused across entries.
	parents, children []int32
}

// listEntry is one listing slot: a position in m.Cycles when cycle is
// not -1, else one in m.Routines, or -1 twice for an unclaimed slot.
type listEntry struct {
	routine int32
	cycle   int32
}

func newView(m *model.Profile) (*view, error) {
	n := len(m.Routines)
	v := &view{
		m:      m,
		from:   make([]int32, len(m.Arcs)),
		to:     make([]int32, len(m.Arcs)),
		inOff:  make([]int32, n+1),
		outOff: make([]int32, n+1),
	}
	resolve := func(name string) (int32, error) {
		p, ok := m.RoutineIndex(name)
		if !ok {
			return 0, fmt.Errorf("report: %q is not a routine", name)
		}
		return int32(p), nil
	}
	nout := 0
	for i := range m.Arcs {
		a := &m.Arcs[i]
		to, err := resolve(a.To)
		if err != nil {
			return nil, err
		}
		from := int32(-1)
		if !a.Spontaneous() {
			if from, err = resolve(a.From); err != nil {
				return nil, err
			}
			v.outOff[from+1]++
			nout++
		}
		v.from[i], v.to[i] = from, to
		v.inOff[to+1]++
	}
	for r := 0; r < n; r++ {
		v.inOff[r+1] += v.inOff[r]
		v.outOff[r+1] += v.outOff[r]
	}
	v.in = make([]int32, len(m.Arcs))
	v.out = make([]int32, nout)
	next := make([]int32, 2*n)
	nextIn, nextOut := next[:n], next[n:]
	copy(nextIn, v.inOff)
	copy(nextOut, v.outOff)
	for i := range m.Arcs {
		to := v.to[i]
		v.in[nextIn[to]] = int32(i)
		nextIn[to]++
		if from := v.from[i]; from >= 0 {
			v.out[nextOut[from]] = int32(i)
			nextOut[from]++
		}
	}

	v.members = make([][]int32, len(m.Cycles))
	for i := range m.Cycles {
		for _, name := range m.Cycles[i].Members {
			p, err := resolve(name)
			if err != nil {
				return nil, err
			}
			v.members[i] = append(v.members[i], p)
		}
	}

	slots := 0
	for i := range m.Routines {
		slots = max(slots, m.Routines[i].Index)
	}
	for i := range m.Cycles {
		slots = max(slots, m.Cycles[i].Index)
	}
	v.listing = make([]listEntry, slots)
	for i := range v.listing {
		v.listing[i] = listEntry{routine: -1, cycle: -1}
	}
	for i := range m.Routines {
		if idx := m.Routines[i].Index; idx > 0 {
			v.listing[idx-1].routine = int32(i)
		}
	}
	for i := range m.Cycles {
		if idx := m.Cycles[i].Index; idx > 0 {
			v.listing[idx-1].cycle = int32(i)
		}
	}
	return v, nil
}

func (v *view) inArcs(r int32) []int32  { return v.in[v.inOff[r]:v.inOff[r+1]] }
func (v *view) outArcs(r int32) []int32 { return v.out[v.outOff[r]:v.outOff[r+1]] }

// self reports whether arc a is self-recursive.
func (v *view) self(a int32) bool { return v.from[a] == v.to[a] }

// intraCycle reports whether both endpoints of arc a are members of
// the same multi-routine cycle. Such arcs are listed in the profile but
// "do not propagate any time" (§4).
func (v *view) intraCycle(a int32) bool {
	from := v.from[a]
	if from < 0 {
		return false
	}
	c := v.m.Routines[from].Cycle
	return c != 0 && c == v.m.Routines[v.to[a]].Cycle
}

// totalCalls is the calls/total denominator for a routine: calls into
// it, or into its whole cycle when it is a member.
func (v *view) totalCalls(r *model.Routine) int64 {
	if r.Cycle != 0 {
		if c, ok := v.m.CycleByNumber(r.Cycle); ok {
			return c.ExternalCalls
		}
	}
	return r.Calls
}

// CallGraph renders the call graph profile from the model.
func CallGraph(w io.Writer, m *model.Profile, opt Options) error {
	v, err := newView(m)
	if err != nil {
		return err
	}
	f := v.compile(&opt)
	o := newOut(w)

	if !opt.NoHeaders {
		o.str("call graph profile:\ngranularity: each sample hit covers 1 word for ")
		o.b = appendFixed(o.b, percentPerTick(m), 2)
		o.str("% of ")
		o.b = appendFixed(o.b, m.Seconds(m.TotalTicks), 2)
		o.str(" seconds\n\n" +
			"                                  called/total       parents\n" +
			"index  %time    self descendants  called+self    name           index\n" +
			"                                  called/total       children\n\n")
	}

	rule := strings.Repeat("-", 72)
	printed := 0
	for _, e := range v.listing {
		switch {
		case e.cycle >= 0:
			if !wantCycle(v, e.cycle, opt, f) {
				continue
			}
		case e.routine < 0 || !wantNode(v, e.routine, opt, f):
			continue
		}
		if printed > 0 {
			o.str(rule)
			o.nl()
		}
		if e.cycle >= 0 {
			printCycleEntry(o, v, e.cycle)
		} else {
			printNodeEntry(o, v, e.routine)
		}
		printed++
	}
	if printed == 0 {
		o.str("no entries selected\n")
	}
	return o.flush()
}

func percentPerTick(m *model.Profile) float64 {
	if m.TotalTicks <= 0 {
		return 0
	}
	return 100 / m.TotalTicks
}

func wantNode(v *view, p int32, opt Options, f filter) bool {
	r := &v.m.Routines[p]
	if r.TotalTicks() == 0 && r.Calls == 0 && r.SelfCalls == 0 {
		return false // never touched; lives in the flat profile's never-called list
	}
	if f.exclude[r.Name] {
		return false
	}
	if f.focus != nil && !f.focus[p] {
		return false
	}
	if opt.MinPercent > 0 && v.m.Percent(r.TotalTicks()) < opt.MinPercent {
		return false
	}
	return true
}

func wantCycle(v *view, ci int32, opt Options, f filter) bool {
	if f.focus != nil && !slices.ContainsFunc(v.members[ci], func(p int32) bool { return f.focus[p] }) {
		return false
	}
	if opt.MinPercent > 0 && v.m.Percent(v.m.Cycles[ci].TotalTicks()) < opt.MinPercent {
		return false
	}
	return true
}

// arcTicks is the time arc a propagates, the listing's sort key.
func (v *view) arcTicks(a int32) float64 {
	arc := &v.m.Arcs[a]
	return arc.PropSelfTicks + arc.PropChildTicks
}

// sortParents orders arcs ascending by contribution (the paper's
// Figure 4 order), ties by caller name; spontaneous arcs sort first
// among ties. The sort is stable, so arcs that tie completely keep the
// model's order — which is the historic n.In walk order.
func (v *view) sortParents(parents []int32) {
	slices.SortStableFunc(parents, func(i, j int32) int {
		if ti, tj := v.arcTicks(i), v.arcTicks(j); ti != tj {
			if ti < tj {
				return -1
			}
			return 1
		}
		return strings.Compare(v.m.Arcs[i].From, v.m.Arcs[j].From)
	})
}

// sortChildren orders arcs descending by the time each child passes
// up, ties by callee name.
func (v *view) sortChildren(children []int32) {
	slices.SortStableFunc(children, func(i, j int32) int {
		if ti, tj := v.arcTicks(i), v.arcTicks(j); ti != tj {
			if ti > tj {
				return -1
			}
			return 1
		}
		return strings.Compare(v.m.Arcs[i].To, v.m.Arcs[j].To)
	})
}

// arcLine renders one parent or child line of an entry: the time arc a
// propagates and its calls out of total, naming routine p.
func (o *out) arcLine(v *view, a int32, total int64, p int32) {
	arc := &v.m.Arcs[a]
	r := &v.m.Routines[p]
	o.pad(14)
	o.fixed(v.m.Seconds(arc.PropSelfTicks), 2, 8)
	o.b = append(o.b, ' ')
	o.fixed(v.m.Seconds(arc.PropChildTicks), 2, 11)
	o.b = append(o.b, ' ')
	o.int(arc.Count, 7)
	o.b = append(o.b, '/')
	o.intLeft(total, 7)
	o.b = append(o.b, ' ')
	o.label(r.Name, r.Cycle)
	o.index(r.Index)
	o.nl()
}

// intraLine renders a call from within a cycle: listed with its bare
// count, never propagated.
func (o *out) intraLine(v *view, a int32, p int32) {
	r := &v.m.Routines[p]
	o.pad(14 + 8 + 1 + 11 + 1)
	o.int(v.m.Arcs[a].Count, 9)
	o.str("     ")
	o.label(r.Name, r.Cycle)
	o.index(r.Index)
	o.nl()
}

// entryHead renders the columns an entry's own line starts with:
// index, %time, self, descendants.
func (o *out) entryHead(m *model.Profile, index int, selfTicks, childTicks float64) {
	start := len(o.b)
	o.b = append(o.b, '[')
	o.b = strconv.AppendInt(o.b, int64(index), 10)
	o.b = append(o.b, ']')
	o.pad(6 - (len(o.b) - start))
	o.b = append(o.b, ' ')
	o.fixed(m.Percent(selfTicks+childTicks), 1, 5)
	o.b = append(o.b, ' ')
	o.fixed(m.Seconds(selfTicks), 2, 8)
	o.b = append(o.b, ' ')
	o.fixed(m.Seconds(childTicks), 2, 11)
	o.b = append(o.b, ' ')
}

// printNodeEntry renders one routine's entry: parents, the self line,
// then children.
func printNodeEntry(o *out, v *view, p int32) {
	m := v.m
	r := &m.Routines[p]
	parents := v.parents[:0]
	for _, a := range v.inArcs(p) {
		if !v.self(a) {
			parents = append(parents, a)
		}
	}
	v.sortParents(parents)
	// Total calls for the x/y column: calls into this routine, or into
	// the whole cycle when the routine is a member.
	totalCalls := v.totalCalls(r)
	for _, a := range parents {
		switch from := v.from[a]; {
		case from < 0:
			o.pad(45)
			o.str("<spontaneous>")
			o.nl()
		case v.intraCycle(a):
			o.intraLine(v, a, from)
		default:
			o.arcLine(v, a, totalCalls, from)
		}
	}
	v.parents = parents

	o.entryHead(m, r.Index, r.SelfTicks, r.ChildTicks)
	o.called(r.Calls, r.SelfCalls, 15)
	o.b = append(o.b, ' ')
	o.label(r.Name, r.Cycle)
	o.index(r.Index)
	o.nl()

	children := v.children[:0]
	for _, a := range v.outArcs(p) {
		if !v.self(a) {
			children = append(children, a)
		}
	}
	v.sortChildren(children)
	for _, a := range children {
		to := v.to[a]
		if v.intraCycle(a) {
			o.intraLine(v, a, to)
			continue
		}
		// Denominator: calls into the child (or its whole cycle).
		o.arcLine(v, a, v.totalCalls(&m.Routines[to]), to)
	}
	v.children = children
}

// printCycleEntry renders a cycle-as-a-whole entry: external parents,
// the cycle line, then the members "listed in place of the children"
// with their calls from within the cycle.
func printCycleEntry(o *out, v *view, ci int32) {
	m := v.m
	c := &m.Cycles[ci]
	parents := v.parents[:0]
	for _, p := range v.members[ci] {
		for _, a := range v.inArcs(p) {
			if !v.intraCycle(a) && !v.self(a) {
				parents = append(parents, a)
			}
		}
	}
	v.sortParents(parents)
	ext := c.ExternalCalls
	for _, a := range parents {
		if from := v.from[a]; from < 0 {
			o.pad(45)
			o.str("<spontaneous>")
			o.nl()
		} else {
			o.arcLine(v, a, ext, from)
		}
	}
	v.parents = parents

	o.entryHead(m, c.Index, c.SelfTicks, c.ChildTicks)
	o.called(ext, c.InternalCalls, 15)
	o.str(" <cycle ")
	o.b = strconv.AppendInt(o.b, int64(c.Number), 10)
	o.str(" as a whole>")
	o.index(c.Index)
	o.nl()

	// Members with their calls from within the cycle (incoming intra
	// arcs plus self calls), in index order — the indices were assigned
	// by decreasing self time, so this reproduces the historic member
	// order.
	members := append(v.children[:0], v.members[ci]...)
	slices.SortStableFunc(members, func(i, j int32) int {
		return cmp.Compare(m.Routines[i].Index, m.Routines[j].Index)
	})
	for _, p := range members {
		r := &m.Routines[p]
		var intra int64
		for _, a := range v.inArcs(p) {
			if v.intraCycle(a) && !v.self(a) {
				intra += m.Arcs[a].Count
			}
		}
		o.pad(14)
		o.fixed(m.Seconds(r.SelfTicks), 2, 8)
		o.str("        0.00 ")
		o.called(intra, r.SelfCalls, 15)
		o.b = append(o.b, ' ')
		o.label(r.Name, r.Cycle)
		o.index(r.Index)
		o.nl()
	}
	v.children = members
}
