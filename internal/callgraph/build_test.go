package callgraph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
)

// randomSyms returns a non-overlapping symbol table of n routines in
// shuffled order: random sizes, gaps (some of them wide, so routines
// are unevenly spread over the text range), and, when collide is set,
// names drawn from a pool smaller than n so several routines share one.
func randomSyms(rng *rand.Rand, n int, collide bool) []object.Sym {
	syms := make([]object.Sym, n)
	addr := int64(rng.Intn(64))
	for i := range syms {
		name := fmt.Sprintf("f%d", i)
		if collide && rng.Intn(3) == 0 {
			name = fmt.Sprintf("f%d", rng.Intn(n/2+1))
		}
		size := int64(rng.Intn(20) + 1)
		syms[i] = object.Sym{Name: name, Addr: addr, Size: size}
		addr += size
		switch rng.Intn(8) {
		case 0:
			addr += int64(rng.Intn(5)) + 1
		case 1:
			addr += int64(rng.Intn(2000)) + 100
		}
	}
	rng.Shuffle(n, func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	return syms
}

// randomProfile returns a histogram over (and beyond) the symbols'
// text range and unsorted arc records that repeat (FromPC, SelfPC)
// keys, call from several sites per caller, and carry spontaneous
// call sites below, between and above the routines. Every callee PC
// lies inside a routine.
func randomProfile(rng *rand.Rand, sorted []object.Sym) *gmon.Profile {
	p := &gmon.Profile{Hz: 60}
	lo, hi := int64(0), int64(16)
	if len(sorted) > 0 {
		lo, hi = sorted[0].Addr, sorted[len(sorted)-1].End()
	}
	step := int64(rng.Intn(6) + 1)
	low := lo - int64(rng.Intn(12))
	n := int((hi+int64(rng.Intn(12))-low)/step) + 1
	p.Hist = gmon.Histogram{Low: low, High: low + int64(n)*step, Step: step, Counts: make([]uint32, n)}
	for i := range p.Hist.Counts {
		if rng.Intn(3) == 0 {
			p.Hist.Counts[i] = uint32(rng.Intn(50))
		}
	}
	if len(sorted) == 0 {
		return p
	}
	pcIn := func(s object.Sym) int64 { return s.Addr + rng.Int63n(s.Size) }
	// A few hot callers, each with a few fixed call sites, so records
	// from distinct sites merge into one arc.
	sites := make([]int64, 0, 12)
	for i := 0; i < 1+rng.Intn(12); i++ {
		sites = append(sites, pcIn(sorted[rng.Intn(len(sorted))]))
	}
	for i := 0; i < rng.Intn(300); i++ {
		if len(p.Arcs) > 0 && rng.Intn(5) == 0 {
			p.Arcs = append(p.Arcs, p.Arcs[rng.Intn(len(p.Arcs))]) // repeated key
			continue
		}
		rec := gmon.Arc{SelfPC: pcIn(sorted[rng.Intn(len(sorted))]), Count: int64(rng.Intn(9))}
		switch rng.Intn(8) {
		case 0:
			rec.FromPC = gmon.SpontaneousPC
		case 1:
			rec.FromPC = lo - 1 - int64(rng.Intn(100)) // below the text range
		case 2:
			rec.FromPC = hi + int64(rng.Intn(100)) // above it
		case 3:
			rec.FromPC = lo + rng.Int63n(hi-lo) // anywhere, gaps included
		case 4, 5:
			rec.FromPC = pcIn(sorted[rng.Intn(len(sorted))])
		default:
			rec.FromPC = sites[rng.Intn(len(sites))]
		}
		p.Arcs = append(p.Arcs, rec)
	}
	return p
}

// referenceBuild is the graph BuildCtx must produce, assembled through
// the public by-name API alone: one node per routine in address order,
// self ticks split bucket by bucket and summed per name in address
// order, then one AddArc per record in record order. PCs resolve by a
// linear scan, independent of symtab's lookup structures.
func referenceBuild(sorted []object.Sym, p *gmon.Profile) (*Graph, error) {
	g := New()
	g.Hz = p.ClockHz()
	for _, s := range sorted {
		g.AddNode(s.Name)
	}
	perSym := make([]float64, len(sorted))
	for i, n := range p.Hist.Counts {
		if n == 0 {
			continue
		}
		lo, hi := p.Hist.BucketRange(i)
		width := float64(hi - lo)
		covered := 0.0
		for j, s := range sorted {
			olo, ohi := max(lo, s.Addr), min(hi, s.End())
			if ohi <= olo {
				continue
			}
			frac := float64(ohi-olo) / width
			perSym[j] += float64(n) * frac
			covered += frac
		}
		if covered < 1 {
			g.LostTicks += float64(n) * (1 - covered)
		}
	}
	for j, v := range perSym {
		if v != 0 {
			g.MustNode(sorted[j].Name).SelfTicks += v
		}
	}
	g.TotalTicks = float64(p.Hist.TotalTicks())
	find := func(pc int64) (string, bool) {
		for _, s := range sorted {
			if s.Addr <= pc && pc < s.End() {
				return s.Name, true
			}
		}
		return "", false
	}
	for _, rec := range p.Arcs {
		callee, ok := find(rec.SelfPC)
		if !ok {
			return nil, fmt.Errorf("callee pc %#x is not in any routine", rec.SelfPC)
		}
		caller := ""
		if rec.FromPC >= 0 {
			caller, _ = find(rec.FromPC)
		}
		g.AddArc(caller, callee, rec.Count)
	}
	return g, nil
}

func arcSig(a *Arc) string {
	from := -1
	if a.Caller != nil {
		from = a.Caller.ID
	}
	return fmt.Sprintf("%d->%d count=%d sites=%d static=%v", from, a.Callee.ID, a.Count, a.Sites, a.Static)
}

func arcSigs(arcs []*Arc) []string {
	out := make([]string, len(arcs))
	for i, a := range arcs {
		out[i] = arcSig(a)
	}
	return out
}

// sameGraph reports the first difference between got and want: node
// order, bit-identical tick totals, every adjacency list in order, and
// the spontaneous list in order.
func sameGraph(got, want *Graph) error {
	bits := math.Float64bits
	if got.Hz != want.Hz || bits(got.TotalTicks) != bits(want.TotalTicks) || bits(got.LostTicks) != bits(want.LostTicks) {
		return fmt.Errorf("graph totals hz/total/lost = %d/%v/%v, want %d/%v/%v",
			got.Hz, got.TotalTicks, got.LostTicks, want.Hz, want.TotalTicks, want.LostTicks)
	}
	if got.Len() != want.Len() || got.NumArcs() != want.NumArcs() {
		return fmt.Errorf("%d nodes/%d arcs, want %d/%d", got.Len(), got.NumArcs(), want.Len(), want.NumArcs())
	}
	for i, gn := range got.Nodes() {
		wn := want.Nodes()[i]
		if gn.Name != wn.Name || gn.ID != wn.ID || bits(gn.SelfTicks) != bits(wn.SelfTicks) {
			return fmt.Errorf("node %d = %s/%d/%v, want %s/%d/%v", i, gn.Name, gn.ID, gn.SelfTicks, wn.Name, wn.ID, wn.SelfTicks)
		}
		if g, w := fmt.Sprint(arcSigs(gn.In)), fmt.Sprint(arcSigs(wn.In)); g != w {
			return fmt.Errorf("%s.In = %s, want %s", gn.Name, g, w)
		}
		if g, w := fmt.Sprint(arcSigs(gn.Out)), fmt.Sprint(arcSigs(wn.Out)); g != w {
			return fmt.Errorf("%s.Out = %s, want %s", gn.Name, g, w)
		}
	}
	if g, w := fmt.Sprint(arcSigs(got.Spontaneous)), fmt.Sprint(arcSigs(want.Spontaneous)); g != w {
		return fmt.Errorf("Spontaneous = %s, want %s", g, w)
	}
	return nil
}

// TestBuildMatchesReference: over random symbol tables (gaps, colliding
// names, a single routine, an empty table) and random unsorted arc
// records, BuildCtx yields exactly the graph of New + AddNode + AddArc
// in record order — the first-occurrence order of every In, Out and
// Spontaneous list that propagation's sums and the listing's
// tie-breaks depend on. The by-name mutators (-s static arcs, -k arc
// removal) then act on both graphs alike.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(60) + 2
		switch iter % 10 {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		collide := iter%3 == 0
		syms := randomSyms(rng, n, collide)
		tab := symtab.FromSyms(syms)
		sorted := append([]object.Sym(nil), syms...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		p := randomProfile(rng, sorted)
		name := fmt.Sprintf("iter %d (n=%d collide=%v arcs=%d)", iter, n, collide, len(p.Arcs))

		got, err := BuildCtx(context.Background(), tab, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceBuild(sorted, p)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if err := sameGraph(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n == 0 {
			continue
		}

		// Static arcs (some already dynamic, some new, some naming
		// unknown routines) and removals, in the same order on both.
		nodeName := func() string {
			if rng.Intn(10) == 0 {
				return "ghost"
			}
			return sorted[rng.Intn(len(sorted))].Name
		}
		var static []object.StaticArc
		for _, a := range got.Nodes()[rng.Intn(got.Len())].In {
			if a.Caller != nil {
				static = append(static, object.StaticArc{Caller: a.Caller.Name, Callee: a.Callee.Name})
			}
		}
		for i := 0; i < rng.Intn(8); i++ {
			static = append(static, object.StaticArc{Caller: nodeName(), Callee: nodeName()})
		}
		got.AddStatic(static)
		want.AddStatic(static)
		for i := 0; i < rng.Intn(6); i++ {
			from, to := nodeName(), nodeName()
			if rng.Intn(2) == 0 && len(p.Arcs) > 0 {
				if a := got.Nodes()[rng.Intn(got.Len())].In; len(a) > 0 && a[0].Caller != nil {
					from, to = a[0].Caller.Name, a[0].Callee.Name
				}
			}
			if g, w := got.RemoveArc(from, to), want.RemoveArc(from, to); g != w {
				t.Fatalf("%s: RemoveArc(%s, %s) = %v, reference %v", name, from, to, g, w)
			}
		}
		from, to := nodeName(), nodeName()
		got.AddArc(from, to, 5)
		want.AddArc(from, to, 5)
		if err := sameGraph(got, want); err != nil {
			t.Fatalf("%s: after static arcs and removals: %v", name, err)
		}
	}
}

// TestBuildUnknownCalleeMatchesReference: a record whose callee PC is
// in a gap, below or above the routines fails the build wherever it
// sits among the records, like the reference.
func TestBuildUnknownCalleeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 50; iter++ {
		syms := randomSyms(rng, rng.Intn(20)+1, iter%2 == 0)
		sorted := append([]object.Sym(nil), syms...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		p := randomProfile(rng, sorted)
		bad := []int64{sorted[0].Addr - 1, sorted[len(sorted)-1].End(), -5}[iter%3]
		at := rng.Intn(len(p.Arcs) + 1)
		p.Arcs = append(p.Arcs[:at], append([]gmon.Arc{{FromPC: bad, SelfPC: bad, Count: 1}}, p.Arcs[at:]...)...)
		if _, err := referenceBuild(sorted, p); err == nil {
			t.Fatalf("iter %d: reference accepted callee pc %d", iter, bad)
		}
		if _, err := BuildCtx(context.Background(), symtab.FromSyms(syms), p, 1); err == nil {
			t.Fatalf("iter %d: BuildCtx accepted callee pc %d", iter, bad)
		}
	}
}
