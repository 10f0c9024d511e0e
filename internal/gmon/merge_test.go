package gmon

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// randomProfile builds a profile with shared geometry and rng-chosen
// counts and arcs.
func randomProfile(rng *rand.Rand) *Profile {
	p := &Profile{
		Hist: Histogram{Low: 0x100, High: 0x100 + 64, Step: 1, Counts: make([]uint32, 64)},
		Hz:   60,
	}
	for i := range p.Hist.Counts {
		p.Hist.Counts[i] = uint32(rng.Intn(50))
	}
	seen := map[[2]int64]bool{}
	for n := rng.Intn(20); n > 0; n-- {
		from := int64(0x100 + rng.Intn(64))
		self := int64(0x100 + rng.Intn(64))
		if seen[[2]int64{from, self}] {
			continue
		}
		seen[[2]int64{from, self}] = true
		p.Arcs = append(p.Arcs, Arc{FromPC: from, SelfPC: self, Count: int64(rng.Intn(1000) + 1)})
	}
	return p
}

func encode(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestMergeAllMatchesSequential is the merge-determinism property: a
// merge of a shuffled profile list equals the left-to-right fold of the
// original list bit for bit, for every list length tried.
func TestMergeAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 5, 8, 16, 33} {
		ps := make([]*Profile, k)
		for i := range ps {
			ps[i] = randomProfile(rng)
		}
		sequential := ps[0].Clone()
		for _, p := range ps[1:] {
			if err := sequential.Merge(p); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
		want := encode(t, sequential)
		shuffled := append([]*Profile(nil), ps...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, err := MergeAll(context.Background(), shuffled, 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Shuffling changes nothing: counts sum and arcs sort.
		if !bytes.Equal(encode(t, got), want) {
			t.Errorf("k=%d: merge of shuffled list differs from sequential fold", k)
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// foldOrderProfiles returns three mergeable profiles whose arc lists
// repeat a (FromPC, SelfPC) key, within one profile (a) and across
// profiles (a and c): a collector that never coalesces, or a v1 file
// written by another tool, can produce such records.
func foldOrderProfiles() []*Profile {
	mk := func(arcs ...Arc) *Profile {
		return &Profile{Hist: Histogram{Low: 0, High: 32, Step: 1, Counts: make([]uint32, 32)}, Hz: 60, Arcs: arcs}
	}
	a := mk(Arc{FromPC: 8, SelfPC: 16, Count: 1}, Arc{FromPC: 8, SelfPC: 16, Count: 2})
	b := mk(Arc{FromPC: 4, SelfPC: 16, Count: 3})
	c := mk(Arc{FromPC: 8, SelfPC: 16, Count: 5})
	return []*Profile{a, b, c}
}

// TestMergeFoldOrder: with duplicate arc records in the inputs, every
// fold order gives the same arcs and the same version-2 bytes, through
// MergeAll and through ReadFiles of the same profiles on disk.
func TestMergeFoldOrder(t *testing.T) {
	want := []Arc{{FromPC: 4, SelfPC: 16, Count: 3}, {FromPC: 8, SelfPC: 16, Count: 8}}
	dir := t.TempDir()
	var names []string
	for i, p := range foldOrderProfiles() {
		names = append(names, filepath.Join(dir, "gmon."+string(rune('a'+i))))
		if err := WriteFile(names[i], p); err != nil {
			t.Fatal(err)
		}
	}
	v2 := func(p *Profile) []byte {
		var buf bytes.Buffer
		if err := WriteV2(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var wantV2 []byte
	for _, order := range permutations(len(names)) {
		ps := foldOrderProfiles()
		var profiles []*Profile
		var files []string
		for _, i := range order {
			profiles = append(profiles, ps[i])
			files = append(files, names[i])
		}
		merged, err := MergeAll(context.Background(), profiles, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged.Arcs, want) {
			t.Errorf("MergeAll%v arcs = %v, want %v", order, merged.Arcs, want)
		}
		if wantV2 == nil {
			wantV2 = v2(merged)
		} else if !bytes.Equal(v2(merged), wantV2) {
			t.Errorf("MergeAll%v: v2 bytes depend on fold order", order)
		}
		read, err := ReadFiles(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2(read), wantV2) {
			t.Errorf("ReadFiles%v: v2 bytes differ from MergeAll's", order)
		}
	}
}

// TestMergeAllLeavesInputsAlone: the inputs must not accumulate into
// each other (MergeAll folds into a clone of the first).
func TestMergeAllLeavesInputsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := []*Profile{randomProfile(rng), randomProfile(rng), randomProfile(rng)}
	before := make([][]byte, len(ps))
	for i, p := range ps {
		before[i] = encode(t, p)
	}
	if _, err := MergeAll(context.Background(), ps, 1); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if !bytes.Equal(encode(t, p), before[i]) {
			t.Errorf("MergeAll mutated input %d", i)
		}
	}
}

func TestMergeAllErrors(t *testing.T) {
	if _, err := MergeAll(context.Background(), nil, 1); err == nil {
		t.Error("empty profile list accepted")
	}
	rng := rand.New(rand.NewSource(9))
	ps := []*Profile{randomProfile(rng), randomProfile(rng), randomProfile(rng)}
	ps[2] = ps[2].Clone()
	ps[2].Hist.Step = 2
	ps[2].Hist.Counts = ps[2].Hist.Counts[:ps[2].Hist.NumBuckets()]
	if _, err := MergeAll(context.Background(), ps, 1); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestMergeAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(10))
	ps := make([]*Profile, 16)
	for i := range ps {
		ps[i] = randomProfile(rng)
	}
	if _, err := MergeAll(ctx, ps, 1); err == nil {
		t.Error("canceled context not honored")
	}
}
