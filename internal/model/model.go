// Package model is the serializable profile IR between analysis and
// presentation. The paper splits gprof into data gathering (§3),
// post-processing (§4), and presentation (§5); this package is the
// typed boundary between the last two: Build condenses an analyzed
// callgraph.Graph (after cycle discovery and time propagation) into a
// plain-data Profile, and every renderer in internal/report consumes
// only the Profile.
//
// The Profile is JSON-serializable under a stable, versioned schema
// (`gprof -json`, docs/FORMATS.md), which makes profiles machine
// readable and comparable across runs: Diff computes per-routine deltas
// between two profiles, the workflow behind cmd/profdiff.
//
// Times appear twice: in ticks (the exact analysis output — float64
// because coarse-granularity histogram attribution splits ticks
// fractionally) and in seconds (ticks / Hz, for human consumers). The
// tick fields are normative; renderers derive every printed number from
// ticks and Hz exactly as the pre-model renderers derived them from the
// graph, which is what keeps text output byte-identical.
package model

// Schema identifies the JSON encoding of a Profile. Consumers must
// reject other values; producers bump the suffix when the shape
// changes incompatibly.
const Schema = "gprof.profile.v1"

// Profile is one analyzed execution profile, ready to render, encode,
// or diff. All slices are in deterministic orders fixed by Build (see
// each field); two analyses of the same data produce identical
// Profiles.
type Profile struct {
	// Schema is the encoding version tag, always the package constant
	// Schema for profiles produced by this code.
	Schema string `json:"schema"`
	// Hz is the effective clock rate: seconds = ticks / Hz.
	Hz int64 `json:"hz"`
	// TotalTicks is the histogram's total tick count, including ticks
	// that fell outside every routine.
	TotalTicks float64 `json:"total_ticks"`
	// LostTicks is the portion of TotalTicks not attributable to any
	// routine (rendered as "<outside any routine>").
	LostTicks float64 `json:"lost_ticks,omitempty"`
	// TotalSeconds is TotalTicks / Hz.
	TotalSeconds float64 `json:"total_seconds"`

	// Routines lists every routine (including never-called ones), in
	// the graph's node order: address order for image-built graphs.
	Routines []Routine `json:"routines"`
	// Cycles lists the multi-member strongly-connected components in
	// discovery order.
	Cycles []Cycle `json:"cycles,omitempty"`
	// Arcs lists every call-graph arc exactly once, grouped by callee
	// in routine order with each callee's incoming arcs in insertion
	// order. Renderers rely on this order: it reproduces the listing's
	// tie-breaking exactly.
	Arcs []Arc `json:"arcs,omitempty"`

	// Flat is the flat profile (§5.1): one row per exercised routine,
	// sorted by decreasing self time.
	Flat []FlatRow `json:"flat,omitempty"`
	// NeverCalled lists routines with no calls and no samples,
	// alphabetically — §5.1's "to verify that nothing important is
	// omitted by this execution".
	NeverCalled []string `json:"never_called,omitempty"`

	// Stacks is the context-sensitive view built from whole-stack
	// samples (BuildStacks), present only when the profile data carried
	// stacks. A profile with this view encodes under SchemaV2; without
	// it the encoding is byte-identical to the v1 schema.
	Stacks *StackView `json:"stacks,omitempty"`

	// Derived lookup tables; see Reindex. byName holds positions in
	// Routines.
	byName   map[string]int
	byNumber map[int]*Cycle
}

// Routine is one routine's analyzed numbers.
type Routine struct {
	Name string `json:"name"`
	// Index is the entry number in the call-graph profile listing
	// (1-based; every routine gets one).
	Index int `json:"index,omitempty"`
	// Cycle is the Number of the cycle containing this routine, 0 when
	// it is not a member of a multi-routine cycle.
	Cycle int `json:"cycle,omitempty"`
	// SelfTicks is the routine's own sampled time; ChildTicks the time
	// propagated from its descendants.
	SelfTicks  float64 `json:"self_ticks"`
	ChildTicks float64 `json:"descendant_ticks"`
	// SelfSeconds and ChildSeconds are the tick fields over Hz.
	SelfSeconds  float64 `json:"self_seconds"`
	ChildSeconds float64 `json:"descendant_seconds"`
	// Calls counts incoming non-recursive calls; SelfCalls the
	// self-recursive ones (§5.2's "called+self" split).
	Calls     int64 `json:"calls"`
	SelfCalls int64 `json:"self_calls,omitempty"`
}

// TotalTicks returns self plus propagated descendant ticks.
func (r *Routine) TotalTicks() float64 { return r.SelfTicks + r.ChildTicks }

// TotalSeconds returns self plus descendant seconds.
func (r *Routine) TotalSeconds() float64 { return r.SelfSeconds + r.ChildSeconds }

// InCycle reports whether the routine belongs to a multi-member cycle.
func (r *Routine) InCycle() bool { return r.Cycle != 0 }

// Cycle is a collapsed strongly-connected component with more than one
// member (§4).
type Cycle struct {
	// Number is the 1-based cycle number, for "<cycle N>" display.
	Number int `json:"number"`
	// Index is the cycle-as-a-whole entry number in the listing.
	Index int `json:"index,omitempty"`
	// Members lists member routine names in discovery order.
	Members []string `json:"members"`
	// SelfTicks sums the members' self time; ChildTicks is the
	// descendant time propagated into the cycle as a whole.
	SelfTicks  float64 `json:"self_ticks"`
	ChildTicks float64 `json:"descendant_ticks"`
	// ExternalCalls counts calls into the cycle from outside it;
	// InternalCalls the calls among members (excluding self-recursion).
	ExternalCalls int64 `json:"external_calls"`
	InternalCalls int64 `json:"internal_calls"`
}

// TotalTicks returns the cycle's self plus descendant ticks.
func (c *Cycle) TotalTicks() float64 { return c.SelfTicks + c.ChildTicks }

// Arc is one caller→callee edge with its traversal count and the time
// it propagates.
type Arc struct {
	// From is the caller name; empty marks a spontaneous arc (caller
	// unidentifiable, §3.1).
	From string `json:"from,omitempty"`
	To   string `json:"to"`
	// Count is the traversal count; TotalCalls the denominator the
	// listing shows in its calls/total column: all calls into the
	// callee (or into the callee's whole cycle).
	Count      int64 `json:"count"`
	TotalCalls int64 `json:"total_calls,omitempty"`
	// Sites is the number of distinct call sites merged into this arc.
	Sites int `json:"sites,omitempty"`
	// Static marks arcs found only in the static call graph; their
	// Count is zero and they propagate no time (§4).
	Static bool `json:"static,omitempty"`
	// PropSelfTicks and PropChildTicks are the portions of the callee's
	// self and descendant time propagated along this arc to the caller.
	PropSelfTicks  float64 `json:"prop_self_ticks"`
	PropChildTicks float64 `json:"prop_child_ticks"`
}

// Spontaneous reports whether the arc's caller is unidentifiable.
func (a *Arc) Spontaneous() bool { return a.From == "" }

// Self reports whether the arc is self-recursive.
func (a *Arc) Self() bool { return a.From != "" && a.From == a.To }

// FlatRow is one row of the flat profile, in presentation order
// (decreasing self time; ties by calls, then name).
type FlatRow struct {
	Name string `json:"name"`
	// Cycle mirrors the routine's cycle number for the "<cycleN>" tag.
	Cycle int `json:"cycle,omitempty"`
	// Percent is the routine's share of total sampled time.
	Percent float64 `json:"percent"`
	// CumulativeSeconds is the running sum of SelfSeconds down the
	// unfiltered table.
	CumulativeSeconds float64 `json:"cumulative_seconds"`
	SelfSeconds       float64 `json:"self_seconds"`
	// Calls counts all calls, including self-recursive ones.
	Calls int64 `json:"calls"`
	// SelfMsPerCall and TotalMsPerCall are the §2 averages; meaningful
	// only when Calls > 0, and TotalMsPerCall only outside cycles.
	SelfMsPerCall  float64 `json:"self_ms_per_call,omitempty"`
	TotalMsPerCall float64 `json:"total_ms_per_call,omitempty"`
}

// Seconds converts ticks to seconds at the profile's clock rate.
func (p *Profile) Seconds(ticks float64) float64 { return ticks / float64(p.Hz) }

// Percent returns ticks as a percentage of the total run.
func (p *Profile) Percent(ticks float64) float64 {
	if p.TotalTicks <= 0 {
		return 0
	}
	return 100 * ticks / p.TotalTicks
}

// Routine returns the named routine, if present. The lookup map is
// built lazily by Build and Decode; a Profile assembled by hand can
// call Reindex to (re)build it.
func (p *Profile) Routine(name string) (*Routine, bool) {
	i, ok := p.RoutineIndex(name)
	if !ok {
		return nil, false
	}
	return &p.Routines[i], true
}

// RoutineIndex returns the named routine's position in Routines, the
// key renderers index their per-routine arrays by.
func (p *Profile) RoutineIndex(name string) (int, bool) {
	if p.byName == nil {
		p.Reindex()
	}
	i, ok := p.byName[name]
	return i, ok
}

// CycleByNumber returns the numbered cycle, if present.
func (p *Profile) CycleByNumber(n int) (*Cycle, bool) {
	if n == 0 {
		return nil, false
	}
	if p.byNumber == nil {
		p.Reindex()
	}
	c, ok := p.byNumber[n]
	return c, ok
}

// Reindex rebuilds the derived lookup tables after direct mutation of
// Routines or Cycles.
func (p *Profile) Reindex() {
	p.byName = make(map[string]int, len(p.Routines))
	for i := range p.Routines {
		p.byName[p.Routines[i].Name] = i
	}
	p.byNumber = make(map[int]*Cycle, len(p.Cycles))
	for i := range p.Cycles {
		p.byNumber[p.Cycles[i].Number] = &p.Cycles[i]
	}
}
