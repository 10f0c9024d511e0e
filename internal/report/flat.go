package report

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Flat renders the flat profile (§5.1): routines sorted by decreasing
// self time, with cumulative seconds, call counts, and per-call times,
// followed by the list of routines never called during the execution.
// The self-seconds column sums to the total sampled run time (any ticks
// that fell outside known routines are reported explicitly so the sum
// still reconciles).
//
// The model's Flat rows arrive pre-sorted; the cumulative column is
// recomputed here over the rows that survive filtering, so a -E or
// minimum-percent view still reconciles internally.
func Flat(w io.Writer, m *model.Profile, opt Options) error {
	exclude := opt.excludeSet()
	o := newOut(w)

	if !opt.NoHeaders {
		o.str("flat profile:\n\n" +
			"  %         cumulative    self                self    total\n" +
			" time        seconds    seconds     calls  ms/call  ms/call name\n")
	}
	var cum float64
	for i := range m.Flat {
		r := &m.Flat[i]
		if opt.MinPercent > 0 && r.Percent < opt.MinPercent {
			continue
		}
		if exclude[r.Name] {
			continue
		}
		cum += r.SelfSeconds
		o.fixed(r.Percent, 1, 5)
		o.b = append(o.b, ' ')
		o.fixed(cum, 2, 14)
		o.b = append(o.b, ' ')
		o.fixed(r.SelfSeconds, 2, 10)
		o.b = append(o.b, ' ')
		o.int(r.Calls, 9)
		o.b = append(o.b, ' ')
		if r.Calls > 0 {
			o.fixed(r.SelfSeconds*1000/float64(r.Calls), 2, 8)
		} else {
			o.pad(8)
		}
		o.b = append(o.b, ' ')
		if r.Calls > 0 && r.Cycle == 0 {
			o.fixed(r.TotalMsPerCall, 2, 8)
		} else {
			o.pad(8)
		}
		o.b = append(o.b, ' ')
		o.label(r.Name, r.Cycle)
		o.nl()
	}
	if m.LostTicks > 0 {
		o.fixed(m.Percent(m.LostTicks), 1, 5)
		o.b = append(o.b, ' ')
		o.fixed(cum+m.Seconds(m.LostTicks), 2, 14)
		o.b = append(o.b, ' ')
		o.fixed(m.Seconds(m.LostTicks), 2, 10)
		o.pad(1 + 9 + 1 + 8 + 1 + 8 + 1)
		o.str("<outside any routine>")
		o.nl()
	}
	if !opt.NoHeaders {
		o.str("\ntotal: ")
		o.b = appendFixed(o.b, m.Seconds(m.TotalTicks), 2)
		o.str(" seconds\n")
	}

	if len(m.NeverCalled) > 0 {
		o.str("\nroutines never called during this execution:\n")
		for _, name := range m.NeverCalled {
			o.str("    ")
			o.str(name)
			o.nl()
		}
	}
	return o.flush()
}

// IndexListing renders the alphabetical index gprof appends: each
// routine name with its entry number, so entries can be found in the
// call graph profile.
func IndexListing(w io.Writer, m *model.Profile) error {
	type item struct {
		name string
		idx  int
	}
	items := make([]item, 0, len(m.Routines)+len(m.Cycles))
	var tag []byte
	for i := range m.Routines {
		r := &m.Routines[i]
		if r.Index <= 0 {
			continue
		}
		name := r.Name
		if r.Cycle != 0 {
			tag = append(tag[:0], name...)
			tag = append(tag, " <cycle"...)
			tag = strconv.AppendInt(tag, int64(r.Cycle), 10)
			name = string(append(tag, '>'))
		}
		items = append(items, item{name, r.Index})
	}
	for i := range m.Cycles {
		c := &m.Cycles[i]
		if c.Index > 0 {
			items = append(items, item{"<cycle " + strconv.Itoa(c.Number) + ">", c.Index})
		}
	}
	slices.SortFunc(items, func(a, b item) int {
		return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.idx, b.idx))
	})
	o := newOut(w)
	o.str("index by function name:\n\n")
	for _, it := range items {
		o.str(" ")
		o.index(it.idx)
		o.b = append(o.b, ' ')
		o.str(it.name)
		o.nl()
	}
	return o.flush()
}
