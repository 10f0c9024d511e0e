package object

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestImageRoundTrip(t *testing.T) {
	im, err := Link([]*Object{buildObj()}, LinkConfig{Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, im); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	if !reflect.DeepEqual(got.Text, im.Text) || !reflect.DeepEqual(got.Data, im.Data) {
		t.Error("text/data mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Funcs, im.Funcs) {
		t.Errorf("funcs mismatch:\n got %+v\nwant %+v", got.Funcs, im.Funcs)
	}
	if got.TextBase != im.TextBase || got.Entry != im.Entry ||
		got.DataBase != im.DataBase || got.StackTop != im.StackTop {
		t.Error("header mismatch")
	}
	a1, ok1 := im.GlobalAddr("x")
	a2, ok2 := got.GlobalAddr("x")
	if !ok1 || !ok2 || a1 != a2 {
		t.Errorf("global x: %v,%v vs %v,%v", a1, ok1, a2, ok2)
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	im, err := Link([]*Object{buildObj()}, LinkConfig{Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/a.out"
	if err := WriteImageFile(path, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Text) != len(im.Text) {
		t.Error("text length mismatch")
	}
	if _, err := ReadImageFile(t.TempDir() + "/missing"); err == nil {
		t.Error("missing file read succeeded")
	}
}

func TestReadImageErrors(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "magic"},
		{"bad magic", []byte("NOPE0000"), "bad magic"},
		{"truncated", []byte("SIMX\x01"), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadImage(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("read succeeded")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want %q", err, tc.wantSub)
			}
		})
	}
}

func TestReadImageBadVersion(t *testing.T) {
	im, err := Link([]*Object{buildObj()}, LinkConfig{Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, im); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 42
	if _, err := ReadImage(bytes.NewReader(b)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want version error", err)
	}
}

// TestImageRoundTripProperty: random (valid) images survive
// serialization byte-exactly.
func TestImageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf := rng.Intn(5) + 1
		o := &Object{Name: "r.o"}
		off := int64(0)
		for i := 0; i < nf; i++ {
			size := int64(rng.Intn(6) + 1)
			fd := FuncDef{
				Name:   fmt.Sprintf("fn%d", i),
				Offset: off,
				Size:   size,
				File:   fmt.Sprintf("src%d.tl", rng.Intn(3)),
			}
			line := int32(rng.Intn(5) + 1)
			for j := int64(0); j < size; j++ {
				o.Text = append(o.Text, isa.Instr{Op: isa.OpNop}.Encode())
				if rng.Intn(2) == 0 {
					fd.Lines = append(fd.Lines, LineMark{Offset: off + j, Line: line})
					line += int32(rng.Intn(3) + 1)
				}
			}
			o.Funcs = append(o.Funcs, fd)
			off += size
		}
		o.Funcs[0].Name = "main"
		for i := 0; i < rng.Intn(4); i++ {
			o.Globals = append(o.Globals, GlobalDef{
				Name: fmt.Sprintf("g%d", i),
				Size: int64(rng.Intn(5) + 1),
				Init: []isa.Word{int64(rng.Intn(100))},
			})
		}
		im, err := Link([]*Object{o}, LinkConfig{StackWords: 64})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteImage(&buf, im); err != nil {
			return false
		}
		first := append([]byte(nil), buf.Bytes()...)
		back, err := ReadImage(&buf)
		if err != nil {
			return false
		}
		var buf2 bytes.Buffer
		if err := WriteImage(&buf2, back); err != nil {
			return false
		}
		return bytes.Equal(first, buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReadImageLinearGrowth: decoding four times the text words costs
// at most about five times as much, measured as bytes allocated (what
// the growing word slices copy; deterministic where wall time is not).
func TestReadImageLinearGrowth(t *testing.T) {
	cost := func(n int) uint64 {
		im := &Image{Text: make([]isa.Word, n), Data: make([]isa.Word, n)}
		var buf bytes.Buffer
		if err := WriteImage(&buf, im); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadImage(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 1 << 16
	small, large := cost(n), cost(4*n)
	if float64(large) > 5*float64(small) {
		t.Errorf("decoding %d words allocated %d bytes, %d words %d bytes (%.1fx)",
			4*n, large, n, small, float64(large)/float64(small))
	}
}
