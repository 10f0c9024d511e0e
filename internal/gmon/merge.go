// Summing runs: the paper's "several runs can be summed" (§3). Bucket
// and arc counts combine by integer addition, and Merge keeps arcs in
// canonical form — sorted by (FromPC, SelfPC), one record per key — so
// the sum of any set of profiles is the same bytes in any fold order.
// Every merge is one serial left-to-right fold: with a linear arc merge
// the fold costs about as much as decoding the file it folds, which
// leaves nothing for a worker pool to win.
package gmon

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"

	"repro/internal/obs"
)

// checkMergeable reports why other cannot be summed into p, if so: the
// histogram geometry and clock rate must agree, the same restriction
// real gprof places on summed gmon.out files.
func (p *Profile) checkMergeable(other *Profile) error {
	if p.Hist.Low != other.Hist.Low || p.Hist.High != other.Hist.High || p.Hist.Step != other.Hist.Step {
		return fmt.Errorf("gmon: merge: histogram geometry mismatch: [%#x,%#x)/%d vs [%#x,%#x)/%d",
			p.Hist.Low, p.Hist.High, p.Hist.Step,
			other.Hist.Low, other.Hist.High, other.Hist.Step)
	}
	if p.ClockHz() != other.ClockHz() {
		return fmt.Errorf("gmon: merge: clock rate mismatch: %d vs %d Hz", p.ClockHz(), other.ClockHz())
	}
	return nil
}

// cmpArcs orders arcs by (FromPC, SelfPC), the canonical arc order.
func cmpArcs(a, b Arc) int {
	if c := cmp.Compare(a.FromPC, b.FromPC); c != 0 {
		return c
	}
	return cmp.Compare(a.SelfPC, b.SelfPC)
}

// sortedArcs returns arcs in canonical order: arcs itself when it is
// already sorted (every version-2 and -3 file), else a stably sorted
// copy. arcs is never modified.
func sortedArcs(arcs []Arc) []Arc {
	if slices.IsSortedFunc(arcs, cmpArcs) {
		return arcs
	}
	arcs = slices.Clone(arcs)
	slices.SortStableFunc(arcs, cmpArcs)
	return arcs
}

// mergeArcs merges two sorted arc lists into a new one, summing the
// counts of every run of records with equal (FromPC, SelfPC) — within
// either list as well as across them.
func mergeArcs(a, b []Arc) []Arc {
	if len(a)+len(b) == 0 {
		return a
	}
	out := make([]Arc, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var x Arc
		if j == len(b) || (i < len(a) && cmpArcs(a[i], b[j]) <= 0) {
			x = a[i]
			i++
		} else {
			x = b[j]
			j++
		}
		if n := len(out); n > 0 && out[n-1].FromPC == x.FromPC && out[n-1].SelfPC == x.SelfPC {
			out[n-1].Count += x.Count
		} else {
			out = append(out, x)
		}
	}
	return out
}

// MergeAll sums profiles into a new one, folding them in slice order.
// The inputs are not modified. jobs is ignored; it remains so existing
// callers keep compiling.
func MergeAll(ctx context.Context, profiles []*Profile, jobs int) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("gmon: no profiles to merge")
	}
	total := profiles[0].Clone()
	for _, p := range profiles[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := total.Merge(p); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// scratchPool holds the decode scratch profiles ReadFiles reuses: every
// file after the first decodes into one pooled Profile whose histogram
// and arc storage persists across files and calls.
var scratchPool = sync.Pool{New: func() any { return new(Profile) }}

// readFileInto decodes the named file into the scratch profile, reusing
// its storage, and reports the bytes consumed. Errors are attributed to
// the file. Files decode zero-copy through a read-only mapping where
// the platform allows (readMapped), streaming otherwise; the OpenBytes/
// OpenReader sniff makes gzip-compressed profile data work everywhere
// files are summed (gprof -sum, profdiff, core.LoadProfiles).
func readFileInto(name string, p *Profile) (int64, error) {
	if st, mapped, err := readMapped(name, p); mapped {
		if err != nil {
			return st.TotalBytes, fmt.Errorf("%s: %w", name, err)
		}
		return st.TotalBytes, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	d, err := OpenReader(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	defer d.Close()
	st, err := decodeInto(d, p)
	if err != nil {
		return st.TotalBytes, fmt.Errorf("%s: %w", name, err)
	}
	return st.TotalBytes, nil
}

// ReadFiles reads the named profile data files and sums them in order,
// the paper's "profile of many executions". The first file becomes the
// accumulator and every later one decodes into a pooled scratch profile,
// so summing k runs holds two decoded profiles, not k. An unreadable or
// unmergeable file is reported by name; ctx is checked before each file.
//
// An obs.Trace carried by ctx records the whole merge as one "merge"
// span plus a "gmon.read_file" span per input, and feeds the
// gmon.files_read / gmon.bytes_read counters; a canceled or failed
// merge marks the trace so partial stage timings survive.
func ReadFiles(ctx context.Context, names []string) (p *Profile, err error) {
	tr := obs.FromContext(ctx)
	defer tr.Span("merge")()
	defer func() {
		if err != nil {
			tr.Fail(err)
		}
	}()
	filesC := tr.Counter("gmon.files_read")
	bytesC := tr.Counter("gmon.bytes_read")
	if len(names) == 0 {
		return nil, fmt.Errorf("gmon: no profile data files")
	}
	read := func(name string, into *Profile) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		defer tr.Span("gmon.read_file")()
		n, err := readFileInto(name, into)
		bytesC.Add(n)
		if err == nil {
			filesC.Add(1)
		}
		return err
	}
	total := &Profile{}
	if err := read(names[0], total); err != nil {
		return nil, err
	}
	scratch := scratchPool.Get().(*Profile)
	defer scratchPool.Put(scratch)
	for _, name := range names[1:] {
		if err := read(name, scratch); err != nil {
			return nil, err
		}
		if err := total.Merge(scratch); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return total, nil
}
