package symtab

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gmon"
	"repro/internal/object"
)

func table() *Table {
	return FromSyms([]object.Sym{
		{Name: "c", Addr: 300, Size: 50},
		{Name: "a", Addr: 100, Size: 10},
		{Name: "b", Addr: 110, Size: 90}, // adjacent to a; gap before c at 200..299
	})
}

func TestFind(t *testing.T) {
	tb := table()
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pc   int64
		want string
		ok   bool
	}{
		{99, "", false}, {100, "a", true}, {109, "a", true},
		{110, "b", true}, {199, "b", true}, {200, "", false},
		{299, "", false}, {300, "c", true}, {349, "c", true}, {350, "", false},
	}
	for _, tc := range cases {
		got, ok := tb.Find(tc.pc)
		if ok != tc.ok || (ok && got.Name != tc.want) {
			t.Errorf("Find(%d) = %q,%v, want %q,%v", tc.pc, got.Name, ok, tc.want, tc.ok)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	tb := table()
	if s, ok := tb.Lookup("b"); !ok || s.Addr != 110 {
		t.Errorf("Lookup(b) = %+v,%v", s, ok)
	}
	if _, ok := tb.Lookup("zz"); ok {
		t.Error("Lookup(zz) found")
	}
	names := tb.Names()
	want := []string{"a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names = %v, want %v", names, want)
		}
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestValidateOverlap(t *testing.T) {
	bad := FromSyms([]object.Sym{
		{Name: "x", Addr: 0, Size: 10},
		{Name: "y", Addr: 5, Size: 10},
	})
	if err := bad.Validate(); err == nil {
		t.Error("overlapping symbols accepted")
	}
	empty := FromSyms([]object.Sym{{Name: "z", Addr: 0, Size: 0}})
	if err := empty.Validate(); err == nil {
		t.Error("zero-size symbol accepted")
	}
}

func TestAttributeExactGranularity(t *testing.T) {
	tb := table()
	h := &gmon.Histogram{Low: 100, High: 350, Step: 1, Counts: make([]uint32, 250)}
	h.Counts[0] = 5   // pc 100 -> a
	h.Counts[9] = 1   // pc 109 -> a
	h.Counts[10] = 7  // pc 110 -> b
	h.Counts[105] = 3 // pc 205 -> gap (lost)
	h.Counts[200] = 2 // pc 300 -> c
	ticks, lost := tb.AttributeHist(h)
	if ticks["a"] != 6 || ticks["b"] != 7 || ticks["c"] != 2 {
		t.Errorf("ticks = %v", ticks)
	}
	if lost != 3 {
		t.Errorf("lost = %v, want 3", lost)
	}
	if got := ticks.Total() + lost; got != 18 {
		t.Errorf("conservation: %v != 18", got)
	}
}

func TestAttributeProportionalSplit(t *testing.T) {
	// Bucket [95,105) covers 5 words outside any routine and 5 in a:
	// half the ticks to a, half lost. Bucket [105,115) covers a's last
	// 5 words and b's first 5: split evenly between a and b.
	tb := table()
	h := &gmon.Histogram{Low: 95, High: 115, Step: 10, Counts: []uint32{8, 4}}
	ticks, lost := tb.AttributeHist(h)
	if math.Abs(ticks["a"]-(4+2)) > 1e-9 {
		t.Errorf("a = %v, want 6", ticks["a"])
	}
	if math.Abs(ticks["b"]-2) > 1e-9 {
		t.Errorf("b = %v, want 2", ticks["b"])
	}
	if math.Abs(lost-4) > 1e-9 {
		t.Errorf("lost = %v, want 4", lost)
	}
}

// TestAttributeConservation: for random symbol tables and histograms,
// attributed ticks + lost ticks always equal the histogram total (the
// paper's flat-profile property that individual times sum to total).
func TestAttributeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var syms []object.Sym
		addr := int64(rng.Intn(10))
		for i := 0; i < rng.Intn(8)+1; i++ {
			size := int64(rng.Intn(20) + 1)
			syms = append(syms, object.Sym{Name: string(rune('a' + i)), Addr: addr, Size: size})
			addr += size + int64(rng.Intn(5)) // occasional gaps
		}
		tb := FromSyms(syms)
		step := int64(rng.Intn(7) + 1)
		low := int64(rng.Intn(5))
		n := rng.Intn(40) + 1
		h := &gmon.Histogram{Low: low, High: low + int64(n)*step, Step: step, Counts: make([]uint32, n)}
		var total float64
		for i := range h.Counts {
			h.Counts[i] = uint32(rng.Intn(10))
			total += float64(h.Counts[i])
		}
		ticks, lost := tb.AttributeHist(h)
		return math.Abs(ticks.Total()+lost-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAttributeEmptyHistogram(t *testing.T) {
	tb := table()
	h := &gmon.Histogram{Low: 0, High: 0, Step: 1}
	ticks, lost := tb.AttributeHist(h)
	if len(ticks) != 0 || lost != 0 {
		t.Errorf("empty histogram attributed: %v, %v", ticks, lost)
	}
}

// TestAttributeHistIdxMatchesNamed: index-keyed attribution agrees
// with its name-keyed projection and conserves ticks (attributed plus
// lost equals the histogram total), including buckets that straddle
// routine boundaries and gaps between routines.
func TestAttributeHistIdxMatchesNamed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var syms []object.Sym
	addr := int64(0)
	for i := 0; i < 40; i++ {
		size := int64(rng.Intn(17) + 3)
		syms = append(syms, object.Sym{Name: fmt.Sprintf("f%d", i), Addr: addr, Size: size})
		addr += size + int64(rng.Intn(3)) // occasional gaps: lost ticks
	}
	tab := FromSyms(syms)
	for _, step := range []int64{1, 4, 16} {
		h := &gmon.Histogram{Low: 0, High: addr, Step: step}
		h.Counts = make([]uint32, h.NumBuckets())
		for i := range h.Counts {
			h.Counts[i] = uint32(rng.Intn(30))
		}
		named, namedLost := tab.AttributeHist(h)
		idx, lost := tab.AttributeHistIdx(h)
		if lost != namedLost {
			t.Errorf("step=%d: lost = %v, named projection lost %v", step, lost, namedLost)
		}
		sum := lost
		for i, v := range idx {
			if name := syms[i].Name; named[name] != v {
				t.Errorf("step=%d: %s = %v, named projection %v", step, name, v, named[name])
			}
			sum += v
		}
		if d := sum - float64(h.TotalTicks()); d > 1e-9 || d < -1e-9 {
			t.Errorf("step=%d: attributed+lost = %v, histogram total %d", step, sum, h.TotalTicks())
		}
	}
}

// randomTable returns a non-overlapping table of n routines with random
// sizes and gaps, some of them far wider than any routine, so routines
// spread unevenly over the text range.
func randomTable(rng *rand.Rand, n int) *Table {
	syms := make([]object.Sym, n)
	addr := int64(rng.Intn(100)) - 50
	for i := range syms {
		size := int64(rng.Intn(24) + 1)
		syms[i] = object.Sym{Name: fmt.Sprintf("f%d", i), Addr: addr, Size: size}
		addr += size
		switch rng.Intn(6) {
		case 0:
			addr += int64(rng.Intn(4)) + 1
		case 1:
			addr += int64(rng.Intn(5000)) + 64
		}
	}
	rng.Shuffle(n, func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	return FromSyms(syms)
}

// searchIndex is the plain binary search over routine ends that
// FindIndex must agree with.
func searchIndex(funcs []object.Sym, pc int64) (int, bool) {
	i := sort.Search(len(funcs), func(i int) bool { return funcs[i].End() > pc })
	if i < len(funcs) && funcs[i].Addr <= pc && pc < funcs[i].End() {
		return i, true
	}
	return 0, false
}

// TestFindIndexMatchesSearch: at both edges of every routine, inside
// gaps, and outside the text range, FindIndex and Find agree with a
// binary search of the sorted routine ends.
func TestFindIndexMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(200)
		if iter < 3 {
			n = iter // empty, single-routine and two-routine tables
		}
		tab := randomTable(rng, n)
		funcs := tab.Syms()
		pcs := []int64{math.MinInt64, -1, 0, math.MaxInt64}
		for _, s := range funcs {
			pcs = append(pcs, s.Addr-1, s.Addr, s.End()-1, s.End(), s.Addr+s.Size/2)
		}
		if n > 0 {
			lo, hi := funcs[0].Addr, funcs[n-1].End()
			for i := 0; i < 50; i++ {
				pcs = append(pcs, lo-1-rng.Int63n(1000), hi+rng.Int63n(1000), lo+rng.Int63n(hi-lo))
			}
		}
		for _, pc := range pcs {
			wi, wok := searchIndex(funcs, pc)
			gi, gok := tab.FindIndex(pc)
			if gi != wi || gok != wok {
				t.Fatalf("iter %d (n=%d): FindIndex(%d) = %d,%v, want %d,%v", iter, n, pc, gi, gok, wi, wok)
			}
			s, ok := tab.Find(pc)
			if ok != wok || (ok && s.Addr != funcs[wi].Addr) {
				t.Fatalf("iter %d: Find(%d) = %+v,%v, want index %d,%v", iter, pc, s, ok, wi, wok)
			}
		}
	}
}

// TestAttributeHistIdxMatchesScan: attribution is bit-identical to a
// reference that scans every routine for each bucket, over tables with
// uneven gaps and histograms that start below and end above the text.
func TestAttributeHistIdxMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 200; iter++ {
		tab := randomTable(rng, rng.Intn(80))
		funcs := tab.Syms()
		lo, hi := int64(0), int64(64)
		if len(funcs) > 0 {
			lo, hi = funcs[0].Addr, funcs[len(funcs)-1].End()
		}
		step := int64(rng.Intn(9) + 1)
		low := lo - int64(rng.Intn(40))
		nb := int((hi+int64(rng.Intn(40))-low)/step) + 1
		h := &gmon.Histogram{Low: low, High: low + int64(nb)*step, Step: step, Counts: make([]uint32, nb)}
		for i := range h.Counts {
			if rng.Intn(2) == 0 {
				h.Counts[i] = uint32(rng.Intn(100))
			}
		}
		want := make([]float64, len(funcs))
		var wantLost float64
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			blo, bhi := h.BucketRange(i)
			width := float64(bhi - blo)
			covered := 0.0
			for j, s := range funcs {
				olo, ohi := max(blo, s.Addr), min(bhi, s.End())
				if ohi <= olo {
					continue
				}
				frac := float64(ohi-olo) / width
				want[j] += float64(n) * frac
				covered += frac
			}
			if covered < 1 {
				wantLost += float64(n) * (1 - covered)
			}
		}
		got, lost := tab.AttributeHistIdx(h)
		if math.Float64bits(lost) != math.Float64bits(wantLost) {
			t.Fatalf("iter %d: lost = %v, want %v", iter, lost, wantLost)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("iter %d: routine %d = %v, want %v", iter, j, got[j], want[j])
			}
		}
	}
}
