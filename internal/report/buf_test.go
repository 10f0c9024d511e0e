package report

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// fixedSeeds are the values appendFixed is most likely to get wrong:
// exact binary ties at both precisions, values just either side of a
// tie and of the fast-path limit, powers of two, subnormals, -0,
// negatives, NaN and the infinities.
var fixedSeeds = []float64{
	0, 0.125, 0.375, 2.5, 0.25, 0.75, 1.05, 0.005, 0.015, 0.045, 1.005,
	2.675, 0.35, 0.95, 99.95, 99.995, 1e-7, 0.049999999, 0.050000001,
	math.Nextafter(0.125, 0), math.Nextafter(0.125, 1),
	math.Nextafter(2.5, 0), math.Nextafter(2.5, 3),
	fixedLimit / 100, fixedLimit / 10, fixedLimit/100 - 0.005, fixedLimit/10 - 0.05,
	math.Nextafter(fixedLimit/100, 0), math.Nextafter(fixedLimit/10, 0),
	fixedLimit/100 + 0.125, fixedLimit, 1 << 20, 1 << 40, 1 << 62,
	math.Ldexp(1, -20), math.Ldexp(1, -60), math.SmallestNonzeroFloat64,
	math.Ldexp(1, -1030), math.MaxFloat64,
	math.Copysign(0, -1), -0.125, -2.5, -1e-9, -42.424242,
	math.NaN(), math.Inf(1), math.Inf(-1),
	8.43, 41.5, 1.0 / 3, 2.0 / 3, 123456.785, 4.999999999,
}

func checkFixed(t *testing.T, v float64) {
	t.Helper()
	for _, prec := range []int{1, 2} {
		want := strconv.AppendFloat(nil, v, 'f', prec, 64)
		if got := appendFixed(nil, v, prec); !bytes.Equal(got, want) {
			t.Errorf("appendFixed(%v (%#x), %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
		}
		o := out{}
		o.b = append(o.b, "x"...)
		o.fixed(v, prec, 8)
		if want := "x" + fmt.Sprintf("%8.*f", prec, v); string(o.b) != want {
			t.Errorf("fixed(%v, %d, 8) = %q, want %q", v, prec, o.b, want)
		}
	}
}

func TestAppendFixed(t *testing.T) {
	for _, v := range fixedSeeds {
		checkFixed(t, v)
	}
	// Every cent and tenth boundary over a span of small values, and
	// the points a third of the way between them.
	for i := 0; i < 20000; i++ {
		for _, v := range []float64{float64(i) / 1000, float64(i)/1000 + 1.0/3000, float64(i) * 0.005} {
			checkFixed(t, v)
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedSeeds {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed(t, math.Float64frombits(bits))
		// Raw bit patterns rarely land in the fast path's range; these
		// map the input onto decimal-looking values near its ties.
		checkFixed(t, float64(bits%(1<<40))/1000)
		checkFixed(t, float64(bits%(1<<33))*0.005)
	})
}

func TestOutColumns(t *testing.T) {
	o := out{}
	o.int(42, 7)
	o.b = append(o.b, '/')
	o.intLeft(-7, 7)
	o.called(12, 0, 6)
	o.called(12, 3, 6)
	o.called(1234567, 1234567, 6)
	o.label("f", 0)
	o.label(" g", 3)
	o.index(17)
	o.pad(70)
	o.int(5, 100)
	want := fmt.Sprintf("%7d/%-7d%6s%6s%s%s%s [%d]%70s%100d", 42, -7, "12", "12+3", "1234567+1234567", "f", " g <cycle3>", 17, "", 5)
	if string(o.b) != want {
		t.Errorf("got  %q\nwant %q", o.b, want)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestRenderReturnsWriteError(t *testing.T) {
	m := analyze(figure4Graph())
	for name, render := range map[string]func(*failWriter) error{
		"callgraph": func(w *failWriter) error { return CallGraph(w, m, Options{}) },
		"flat":      func(w *failWriter) error { return Flat(w, m, Options{}) },
		"index":     func(w *failWriter) error { return IndexListing(w, m) },
	} {
		w := &failWriter{}
		if err := render(w); err == nil || w.n != 1 {
			t.Errorf("%s: err %v after %d writes, want the write error after one", name, err, w.n)
		}
	}
}
