// Package gmon defines the profile data file ("gmon.out") written when a
// profiled program exits and read by the post-processors.
//
// The paper (§3.2) condenses two data structures to the file as the
// program terminates: the arc table — (call site, callee, traversal
// count) triples — and the program-counter histogram, whose ranges "are
// summarized as a lower and upper bound and a step size". This package is
// the in-memory form of that file, its binary encoding, and the merge
// operation that lets "the profile data for several executions of a
// program be combined by the post-processing" (§3).
package gmon

import (
	"fmt"
	"sort"
)

// SpontaneousPC is the FromPC of an arc whose caller could not be
// identified (non-standard calling sequences, §3.1). It matches
// vm.SpontaneousPC; the value is duplicated to keep this package free of
// a vm dependency.
const SpontaneousPC = int64(-1)

// DefaultHz is the clock-tick rate used when a Profile does not specify
// one: the paper's 1/60th-of-a-second system clock.
const DefaultHz = 60

// Histogram is the program-counter sampling histogram. Bucket i counts
// clock ticks observed with Low+i*Step <= pc < Low+(i+1)*Step.
type Histogram struct {
	Low    int64 // first text address covered
	High   int64 // one past the last text address covered
	Step   int64 // words per bucket (1 = one-to-one with text words)
	Counts []uint32
}

// NumBuckets returns the bucket count implied by the bounds and step.
func (h *Histogram) NumBuckets() int {
	if h.Step <= 0 || h.High <= h.Low {
		return 0
	}
	return int((h.High - h.Low + h.Step - 1) / h.Step)
}

// BucketFor returns the bucket index covering pc, or -1 if out of range.
func (h *Histogram) BucketFor(pc int64) int {
	if pc < h.Low || pc >= h.High || h.Step <= 0 {
		return -1
	}
	return int((pc - h.Low) / h.Step)
}

// BucketRange returns the [lo, hi) address range of bucket i.
func (h *Histogram) BucketRange(i int) (lo, hi int64) {
	lo = h.Low + int64(i)*h.Step
	hi = lo + h.Step
	if hi > h.High {
		hi = h.High
	}
	return lo, hi
}

// TotalTicks sums all bucket counts.
func (h *Histogram) TotalTicks() int64 {
	var t int64
	for _, c := range h.Counts {
		t += int64(c)
	}
	return t
}

// Validate checks internal consistency.
func (h *Histogram) Validate() error {
	if h.Step <= 0 {
		return fmt.Errorf("gmon: histogram step %d (want > 0)", h.Step)
	}
	if h.High < h.Low {
		return fmt.Errorf("gmon: histogram bounds [%#x,%#x) inverted", h.Low, h.High)
	}
	if want := h.NumBuckets(); len(h.Counts) != want {
		return fmt.Errorf("gmon: histogram has %d buckets, bounds imply %d", len(h.Counts), want)
	}
	return nil
}

// MaxStackDepth is the format bound on frames per stack sample: the
// reader rejects deeper records, so a hostile file cannot drive an
// unbounded per-record allocation. Collectors cap their walks well
// below it (mon.DefaultStackDepth).
const MaxStackDepth = 512

// StackSample is one whole-call-stack sample with its observation
// count — the retrospective's fix for §3.2's average-time-per-call
// assumption: "periodically gathering not just isolated program counter
// samples and isolated call graph arcs, but complete call stacks".
//
// PCs are leaf-first: PCs[0] is the program counter the clock tick
// sampled, and each later entry is the return address of the next
// active frame outward (so the call site of frame i is PCs[i]-1 for
// i > 0). PCs are raw addresses; symbol resolution happens at model
// build time, which is what lets stacks merge across runs without a
// symbol table present.
type StackSample struct {
	PCs   []int64
	Count int64
}

// Arc is one dynamic call-graph arc with its traversal count. FromPC is
// the address of the call instruction (the call site); SelfPC is the
// address of the callee's profiled prologue, which the symbol table maps
// to the callee routine.
type Arc struct {
	FromPC int64
	SelfPC int64
	Count  int64
}

// Profile is the complete contents of a profile data file.
type Profile struct {
	Hist Histogram
	Arcs []Arc
	// Stacks holds the interned whole-stack samples, one entry per
	// distinct PC sequence. Empty for profiles gathered without a stack
	// walker and for files in format versions 1 and 2 (the stack
	// section is a version-3 addition; downgrading drops it).
	Stacks []StackSample
	// Hz is the clock-tick rate: histogram counts are ticks, and
	// seconds = ticks / Hz. Zero means DefaultHz.
	Hz int64
}

// ClockHz returns the effective tick rate.
func (p *Profile) ClockHz() int64 {
	if p.Hz > 0 {
		return p.Hz
	}
	return DefaultHz
}

// TotalSeconds returns the sampled execution time in seconds.
func (p *Profile) TotalSeconds() float64 {
	return float64(p.Hist.TotalTicks()) / float64(p.ClockHz())
}

// Validate checks internal consistency of the whole profile.
func (p *Profile) Validate() error {
	if err := p.Hist.Validate(); err != nil {
		return err
	}
	if p.Hz < 0 {
		return fmt.Errorf("gmon: clock rate %d Hz (want >= 0)", p.Hz)
	}
	for i, a := range p.Arcs {
		if a.Count < 0 {
			return fmt.Errorf("gmon: arc %d has negative count %d", i, a.Count)
		}
		if a.SelfPC < 0 {
			return fmt.Errorf("gmon: arc %d has invalid callee pc %#x", i, a.SelfPC)
		}
		if a.FromPC < 0 && a.FromPC != SpontaneousPC {
			return fmt.Errorf("gmon: arc %d has invalid call-site pc %#x", i, a.FromPC)
		}
	}
	for i := range p.Stacks {
		s := &p.Stacks[i]
		if len(s.PCs) == 0 {
			return fmt.Errorf("gmon: stack %d has no frames", i)
		}
		if len(s.PCs) > MaxStackDepth {
			return fmt.Errorf("gmon: stack %d has %d frames (max %d)", i, len(s.PCs), MaxStackDepth)
		}
		if s.Count <= 0 {
			return fmt.Errorf("gmon: stack %d has non-positive count %d", i, s.Count)
		}
		for j, pc := range s.PCs {
			if pc < 0 {
				return fmt.Errorf("gmon: stack %d frame %d has invalid pc %#x", i, j, pc)
			}
		}
	}
	return nil
}

// SortArcs orders arcs by (FromPC, SelfPC) for deterministic output.
func (p *Profile) SortArcs() { sortArcs(p.Arcs) }

func sortArcs(arcs []Arc) {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].FromPC != arcs[j].FromPC {
			return arcs[i].FromPC < arcs[j].FromPC
		}
		return arcs[i].SelfPC < arcs[j].SelfPC
	})
}

// compareStacks orders PC sequences lexicographically, shorter prefix
// first — the canonical stack-table order SortStacks and the v3 writer
// fix.
func compareStacks(a, b []int64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SortStacks orders stack samples lexicographically by PC sequence for
// deterministic output; Merge and the v3 writer rely on this canonical
// order the way arcs rely on SortArcs.
func (p *Profile) SortStacks() { SortStacks(p.Stacks) }

// SortStacks orders a bare stack-sample slice into the same canonical
// order, for collectors that assemble one outside a Profile.
func SortStacks(stacks []StackSample) {
	sort.Slice(stacks, func(i, j int) bool {
		return compareStacks(stacks[i].PCs, stacks[j].PCs) < 0
	})
}

// SumStacks returns the total number of whole-stack samples the
// profile carries — the sum of interned counts, the stacks-view
// analogue of the histogram's TotalTicks.
func (p *Profile) SumStacks() int64 {
	var n int64
	for i := range p.Stacks {
		n += p.Stacks[i].Count
	}
	return n
}

// stackKey maps a PC sequence to a comparable map key without
// allocating beyond the string itself: the raw little-endian bytes of
// the sequence.
func stackKey(pcs []int64) string {
	b := make([]byte, 8*len(pcs))
	for i, pc := range pcs {
		v := uint64(pc)
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(v >> (8 * j))
		}
	}
	return string(b)
}

// Merge accumulates other into p: histogram bucket counts add
// element-wise, and the arc lists merge linearly into canonical form —
// sorted by (FromPC, SelfPC) with the counts of equal keys summed, so
// the result does not depend on the order profiles are folded in.
// other is never modified; an unsorted (version-1) arc list is merged
// from a sorted copy. Profiles are mergeable only when their histogram
// geometry and clock rate agree, the same restriction real gprof
// places on summed gmon.out files.
func (p *Profile) Merge(other *Profile) error {
	if err := p.checkMergeable(other); err != nil {
		return err
	}
	for i, c := range other.Hist.Counts {
		p.Hist.Counts[i] += c
	}
	p.Arcs = mergeArcs(sortedArcs(p.Arcs), sortedArcs(other.Arcs))
	if len(other.Stacks) > 0 {
		// Stack-table-aware fold: identical PC sequences sum their
		// counts, new sequences append. PC slices are never mutated
		// after construction, so the merged table may alias other's.
		sidx := make(map[string]int, len(p.Stacks))
		for i := range p.Stacks {
			sidx[stackKey(p.Stacks[i].PCs)] = i
		}
		for _, s := range other.Stacks {
			if i, ok := sidx[stackKey(s.PCs)]; ok {
				p.Stacks[i].Count += s.Count
			} else {
				sidx[stackKey(s.PCs)] = len(p.Stacks)
				p.Stacks = append(p.Stacks, s)
			}
		}
		p.SortStacks()
	}
	return nil
}

// Clone returns a deep copy of p. Stack PC sequences are shared, not
// copied: they are immutable after construction (Merge only ever sums
// counts or appends whole entries), so aliasing them is safe and keeps
// the copy-on-write snapshot path cheap.
func (p *Profile) Clone() *Profile {
	q := &Profile{Hist: p.Hist, Hz: p.Hz}
	q.Hist.Counts = append([]uint32(nil), p.Hist.Counts...)
	q.Arcs = append([]Arc(nil), p.Arcs...)
	if p.Stacks != nil {
		q.Stacks = append([]StackSample(nil), p.Stacks...)
	}
	return q
}
