package gmon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goldenV1Hex is the byte-exact version-1 encoding of sample(),
// captured from the original field-by-field encoder. The block codec
// must reproduce it bit for bit: the format is an on-disk contract.
const goldenV1Hex = "474d4f4e010000003c000000000000000010000000000000101000000000000001000000000000001000000003000000000000000500000000000000090000000100000000000000000000000000000002000000000000000000000000000000000000000000000007000000030000000210000000000000081000000000000004000000000000000310000000000000081000000000000006000000000000" +
	"00ffffffffffffffff0e100000000000000100000000000000"

func TestWriteMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(goldenV1Hex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v1 encoding drifted from the golden bytes:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// referenceEncodeV1 is an independent hand-rolled version-1 encoder:
// every field placed with PutUint32/PutUint64 into one flat slice.
func referenceEncodeV1(p *Profile) []byte {
	out := make([]byte, 0, 48+4*len(p.Hist.Counts)+24*len(p.Arcs))
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	i64 := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		out = append(out, b[:]...)
	}
	out = append(out, 'G', 'M', 'O', 'N')
	u32(1)
	i64(p.ClockHz())
	i64(p.Hist.Low)
	i64(p.Hist.High)
	i64(p.Hist.Step)
	u32(uint32(len(p.Hist.Counts)))
	u32(uint32(len(p.Arcs)))
	for _, c := range p.Hist.Counts {
		u32(c)
	}
	for _, a := range p.Arcs {
		i64(a.FromPC)
		i64(a.SelfPC)
		i64(a.Count)
	}
	return out
}

func TestWriteMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomProfile(rng)
		got := encode(t, p)
		if want := referenceEncodeV1(p); !bytes.Equal(got, want) {
			t.Fatalf("profile %d: block codec and reference encoder disagree:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestV2RoundTripProperty: a version-2 file decodes to the same profile
// as the version-1 encoding of its canonical (sorted) form, and the
// encoding is deterministic.
func TestV2RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		p := randomProfile(rng)
		if i%3 == 0 {
			// Exercise the spontaneous-caller sentinel: FromPC -1
			// encodes as delta-bias zero.
			p.Arcs = append(p.Arcs, Arc{FromPC: SpontaneousPC, SelfPC: 0x105, Count: 9})
		}
		var v2 bytes.Buffer
		if err := WriteV2(&v2, p); err != nil {
			t.Fatal(err)
		}
		canon := p.Clone()
		canon.SortArcs()
		got, err := Read(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("profile %d: decode v2: %v", i, err)
		}
		want, err := Read(bytes.NewReader(encode(t, canon)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("profile %d: v2 round trip diverged:\n got %+v\nwant %+v", i, got, want)
		}
		var again bytes.Buffer
		if err := WriteV2(&again, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), v2.Bytes()) {
			t.Fatalf("profile %d: v2 encoding not deterministic", i)
		}
		// WriteV2 must not have reordered the caller's arcs.
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadStatsSections(t *testing.T) {
	p := sample()
	p.SortArcs() // version 2 stores arcs in canonical order
	for _, version := range []int{Version1, Version2} {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			t.Fatal(err)
		}
		total := int64(buf.Len())
		got, st, err := ReadStats(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("v%d: ReadStats decoded %+v, want %+v", version, got, p)
		}
		if st.Version != version {
			t.Errorf("v%d: stats report version %d", version, st.Version)
		}
		if st.HeaderBytes != 48 {
			t.Errorf("v%d: header bytes = %d, want 48", version, st.HeaderBytes)
		}
		if sum := st.HeaderBytes + st.HistBytes + st.ArcBytes; sum != st.TotalBytes || sum != total {
			t.Errorf("v%d: sections sum to %d, total %d, file %d", version, sum, st.TotalBytes, total)
		}
	}
}

// TestStreamingWriterReader drives the streaming halves directly:
// record-at-a-time writes, batched reads, no whole-profile buffers.
func TestStreamingWriterReader(t *testing.T) {
	p := sample()
	p.SortArcs()
	for _, version := range []int{Version1, Version2} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{
			Version: version, Hz: p.Hz,
			Low: p.Hist.Low, High: p.Hist.High, Step: p.Hist.Step,
			NumBuckets: len(p.Hist.Counts), NumArcs: len(p.Arcs),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCounts(p.Hist.Counts); err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Arcs {
			if err := w.WriteArc(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var whole bytes.Buffer
		if err := WriteVersion(&whole, p, version); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), whole.Bytes()) {
			t.Fatalf("v%d: streaming writer and Write disagree", version)
		}

		d, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if h := d.Header(); h.Version != version || h.NumArcs != len(p.Arcs) {
			t.Fatalf("v%d: header = %+v", version, h)
		}
		counts, err := d.ReadCounts(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, p.Hist.Counts) {
			t.Fatalf("v%d: counts = %v", version, counts)
		}
		var arcs []Arc
		batch := make([]Arc, 2)
		for {
			n, err := d.ReadArcs(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			arcs = append(arcs, batch[:n]...)
		}
		if !reflect.DeepEqual(arcs, p.Arcs) {
			t.Fatalf("v%d: arcs = %v, want %v", version, arcs, p.Arcs)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriterEnforcesContract(t *testing.T) {
	h := Header{Low: 0x100, High: 0x104, Step: 1, NumBuckets: 4, NumArcs: 1}
	// Arcs before counts.
	w, err := NewWriter(io.Discard, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteArc(Arc{SelfPC: 1}); err == nil {
		t.Error("arc before counts accepted")
	}
	w.Close()
	// Close with arcs owed.
	w, err = NewWriter(io.Discard, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCounts(make([]uint32, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "never written") {
		t.Errorf("short close error = %v", err)
	}
	// Too many arcs.
	w, err = NewWriter(io.Discard, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCounts(make([]uint32, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteArc(Arc{SelfPC: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteArc(Arc{SelfPC: 2}); err == nil {
		t.Error("arc past the declared count accepted")
	}
	w.Close()
	// V2 order enforcement.
	w, err = NewWriter(io.Discard, Header{Version: Version2, Low: 0x100, High: 0x104, Step: 1, NumBuckets: 4, NumArcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCounts(make([]uint32, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteArc(Arc{FromPC: 9, SelfPC: 9, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteArc(Arc{FromPC: 3, SelfPC: 3, Count: 1}); err == nil {
		t.Error("out-of-order v2 arc accepted")
	}
	w.Close()
}

// TestLyingHeaderBoundedAlloc: a header declaring huge record counts
// over a tiny body must fail with a truncation error without first
// allocating room for the declared records.
func TestLyingHeaderBoundedAlloc(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Low: 0, High: 1 << 27, Step: 1, NumBuckets: 1 << 27, NumArcs: 1 << 27})
	if err != nil {
		t.Fatal(err)
	}
	w.Close() // header only; both sections missing
	header := buf.Bytes()[:48]

	before := testingAllocs(func() {
		if _, err := Read(bytes.NewReader(header)); err == nil {
			t.Error("truncated 128M-record file decoded successfully")
		}
	})
	// The decoder may allocate its chunk-granular scratch but nothing
	// near the declared 512MiB+ of records.
	if before > 1<<21 {
		t.Errorf("decoding a lying header allocated %d bytes", before)
	}
}

func testingAllocs(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMergeAllStreamingMatchesSequential: the pooled streaming merge
// over any worker count equals the one-at-a-time fold bit for bit.
func TestMergeAllStreamingMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		k := rng.Intn(9) + 1
		names := make([]string, k)
		var want *Profile
		for i := range names {
			p := randomProfile(rng)
			names[i] = filepath.Join(dir, "gmon"+string(rune('a'+trial))+string(rune('0'+i)))
			version := Version1
			if rng.Intn(2) == 1 {
				version = Version2
			}
			if err := WriteFileVersion(names[i], p, version); err != nil {
				t.Fatal(err)
			}
			// The sequential reference decodes through the same files,
			// so v2's canonical arc order is shared by both sides.
			q, err := ReadFile(names[i])
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = q
			} else if err := want.Merge(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, jobs := range []int{1, 2, 3, 8} {
			got, err := MergeAllStreaming(context.Background(), names, jobs)
			if err != nil {
				t.Fatalf("trial %d jobs %d: %v", trial, jobs, err)
			}
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Fatalf("trial %d: jobs=%d merge diverged from sequential fold", trial, jobs)
			}
		}
	}
}

func TestMergeAllStreamingNamesBadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "gmon.good")
	if err := WriteFile(good, sample()); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "gmon.bad")
	if err := os.WriteFile(bad, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := MergeAllStreaming(context.Background(), []string{good, bad, good}, 4)
	if err == nil || !strings.Contains(err.Error(), "gmon.bad") {
		t.Errorf("error does not name the bad file: %v", err)
	}
	// Geometry mismatch is attributed to the incompatible input too.
	odd := sample()
	odd.Hist.High += 4
	odd.Hist.Counts = append(odd.Hist.Counts, 0, 0, 0, 0)
	oddName := filepath.Join(dir, "gmon.odd")
	if err := WriteFile(oddName, odd); err != nil {
		t.Fatal(err)
	}
	_, err = MergeAllStreaming(context.Background(), []string{good, good, oddName, good}, 3)
	if err == nil || !strings.Contains(err.Error(), "gmon.odd") {
		t.Errorf("error does not name the incompatible file: %v", err)
	}
}

// TestV2SmallerOnSortedProfiles: delta+varint encoding must not exceed
// the fixed-width layout on realistic (sorted, clustered-PC) profiles.
func TestV2SmallerOnSortedProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		p := randomProfile(rng)
		p.SortArcs()
		v1 := len(encode(t, p))
		var buf bytes.Buffer
		if err := WriteV2(&buf, p); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= v1 {
			t.Fatalf("profile %d: v2 %d bytes >= v1 %d bytes", i, buf.Len(), v1)
		}
	}
}

// TestReadIntoReusesStorage: decoding a second profile into the same
// destination must not allocate new slices when capacity suffices.
func TestReadIntoReusesStorage(t *testing.T) {
	p := sample()
	enc := encode(t, p)
	var dst Profile
	if err := ReadInto(bytes.NewReader(enc), &dst); err != nil {
		t.Fatal(err)
	}
	c0 := &dst.Hist.Counts[0]
	a0 := &dst.Arcs[0]
	if err := ReadInto(bytes.NewReader(enc), &dst); err != nil {
		t.Fatal(err)
	}
	if &dst.Hist.Counts[0] != c0 || &dst.Arcs[0] != a0 {
		t.Error("ReadInto reallocated storage that could have been reused")
	}
	if !reflect.DeepEqual(&dst, p) {
		t.Errorf("second decode = %+v, want %+v", &dst, p)
	}
}

// sortArcs is exercised through WriteV2's copy-then-sort path; make
// sure unsorted inputs really are left untouched.
func TestWriteV2LeavesInputAlone(t *testing.T) {
	p := sample()
	p.Arcs = []Arc{
		{FromPC: 0x110, SelfPC: 0x111, Count: 1},
		{FromPC: 0x102, SelfPC: 0x103, Count: 2},
	}
	orig := append([]Arc(nil), p.Arcs...)
	if err := WriteV2(io.Discard, p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Arcs, orig) {
		t.Errorf("WriteV2 mutated the caller's arcs: %v", p.Arcs)
	}
}

// TestDecodeLinearGrowth: decoding four times the records costs at
// most about five times as much. The cost measured is the bytes the
// decoder allocates, which is what its result slices copy as they
// grow: a deterministic stand-in for time on a shared host, where a
// fixed growth step makes it quadratic in the record count.
func TestDecodeLinearGrowth(t *testing.T) {
	encode := func(n, version int) []byte {
		p := &Profile{Hist: Histogram{Low: 0, High: int64(n), Step: 1, Counts: make([]uint32, n)}}
		for i := 0; i < n; i++ {
			p.Hist.Counts[i] = uint32(i % 7)
			p.Arcs = append(p.Arcs, Arc{FromPC: int64(i), SelfPC: int64(i+1) % int64(n), Count: 1})
		}
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, version := range []int{Version1, Version2} {
		cost := func(n int) uint64 {
			data := encode(n, version)
			return testingAllocs(func() {
				if _, err := Read(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
		}
		const n = 1 << 16
		small, large := cost(n), cost(4*n)
		if float64(large) > 5*float64(small) {
			t.Errorf("v%d: decoding %d records allocated %d bytes, %d records %d bytes (%.1fx)",
				version, 4*n, large, n, small, float64(large)/float64(small))
		}
	}
}
