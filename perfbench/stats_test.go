package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The percentile rule: the highest percentile with at least ten samples
// beyond it, by nearest rank; the maximum below twenty samples.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{5, 100, 5},
		{19, 100, 19},
		{20, 50, 10},
		{39, 50, 20},
		{40, 75, 30},
		{100, 90, 90},
		{199, 90, 180},
		{200, 95, 190},
		{999, 95, 950},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		got, pct := tail(seq(c.n))
		if pct != c.pct || got != c.want {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", c.n, got, pct, c.want, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got {
				beyond++
			}
		}
		if c.pct < 100 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("tail(nil) = %g, %g", v, p)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which the acceptance rule uses: for 1..10 the quartiles are 2.75 and
// 8.25, and for [1,2,4,8,16,32,64,128,256,512] 3.5 and 160.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	pow := []float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	q1, q3 = quartiles(pow)
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles(powers of two) = %g, %g; want 3.5, 160", q1, q3)
	}
	if got := quartileSpread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// Ratio scoring: a halved rate scores the same as a doubled latency.
func TestScoreIsARatio(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v * 1.005} }
	lat := score(steady(10), steady(20), "lower", 0.1)
	rate := score(steady(100), steady(50), "higher", 0.1)
	if math.Abs(lat.Score-2) > 1e-9 || math.Abs(rate.Score-2) > 1e-9 {
		t.Fatalf("scores %g (latency doubled), %g (rate halved); want 2 and 2", lat.Score, rate.Score)
	}
	if lat.Status != "regressed" || rate.Status != "regressed" {
		t.Errorf("statuses %q, %q; want regressed", lat.Status, rate.Status)
	}
	if v := score(steady(100), steady(200), "higher", 0.1); v.Status != "improved" || math.Abs(v.Score-0.5) > 1e-9 {
		t.Errorf("doubled rate: %+v", v)
	}
	if v := score(steady(100), steady(105), "lower", 0.1); v.Status != "unchanged" {
		t.Errorf("5%% within a 10%% bound: %+v", v)
	}
}

// A metric whose spread exceeds its bound is unresolved, not
// unchanged — unless every new run beats every base run.
func TestScoreUnresolvedBeyondSpread(t *testing.T) {
	noisy := []float64{50, 100, 150, 80, 120}
	if v := score(noisy, noisy, "lower", 0.1); v.Status != "unresolved" {
		t.Errorf("noisy vs itself: %q, want unresolved", v.Status)
	}
	if v := score(noisy, []float64{10, 11, 12, 10, 11}, "lower", 0.1); v.Status != "improved" {
		t.Errorf("every new run better: %q, want improved", v.Status)
	}
	if v := score([]float64{1, 1, 1}, []float64{0, 0, 0}, "lower", 0.1); v.Status != "unresolved" {
		t.Errorf("zero median: %q, want unresolved", v.Status)
	}
}

// Open-loop accounting: latency runs from the due time, so time spent
// waiting behind a stall counts; lateness is how late the generator
// issued the operation, wait how long it queued for a connection; a
// failed operation misses every limit.
func TestOpenLoopAccounting(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	samples := []opSample{
		{due: 0, sent: 0, start: 0, end: msd(5), ok: true},
		{due: msd(10), sent: msd(10), start: msd(10), end: msd(100), ok: true},     // a 90ms stall
		{due: msd(20), sent: msd(21), start: msd(100), end: msd(105), ok: true},    // queued behind it
		{due: msd(30), sent: msd(32.5), start: msd(105), end: msd(106), ok: false}, // issued late
	}
	s := summarize(samples)
	if s.n != 4 || s.failed != 1 {
		t.Fatalf("n=%d failed=%d", s.n, s.failed)
	}
	wantLat := []float64{5, 90, 85, math.Inf(1)}
	wantLate := []float64{0, 0, 1, 2.5}
	wantWait := []float64{0, 0, 80, 75}
	for i := range samples {
		if math.Abs(s.latency[i]-wantLat[i]) > 1e-9 && !(math.IsInf(wantLat[i], 1) && math.IsInf(s.latency[i], 1)) {
			t.Errorf("latency[%d] = %g, want %g", i, s.latency[i], wantLat[i])
		}
		if math.Abs(s.lateness[i]-wantLate[i]) > 1e-9 {
			t.Errorf("lateness[%d] = %g, want %g", i, s.lateness[i], wantLate[i])
		}
		if math.Abs(s.wait[i]-wantWait[i]) > 1e-9 {
			t.Errorf("wait[%d] = %g, want %g", i, s.wait[i], wantWait[i])
		}
	}
	if s.meets(1000) {
		t.Error("a rung with a failed operation met the limit")
	}
	ok := summarize(samples[:3])
	if !ok.meets(100) || ok.meets(50) {
		t.Error("limit check disagrees with the 90ms tail")
	}
	if got := finite(math.Inf(1), 2*time.Second); got != 2000 {
		t.Errorf("finite(+Inf) = %g, want the phase length", got)
	}
}

// A layer's self time is its span minus the union of its children.
func TestSelfTimes(t *testing.T) {
	d := func(x int) time.Duration { return time.Duration(x) }
	spans := []span{
		{name: "root", parent: -1, start: d(0), end: d(100)},
		{name: "a.x", parent: 0, start: d(10), end: d(40)},
		{name: "b.y", parent: 0, start: d(30), end: d(60)}, // overlaps a.x
		{name: "c.z", parent: 2, start: d(35), end: d(45)},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 30, 20, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].name, self[i], want[i])
		}
	}
	r := &recorder{spans: spans}
	sum := r.summarize("root")
	// Layer self times sum to 30+20+10 of the root's 100.
	if math.Abs(sum.coverage-0.6) > 1e-9 {
		t.Errorf("coverage = %g, want 0.6", sum.coverage)
	}
}

// BENCHMARK.json and the metric tables must list the same metrics.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var f struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		file, src []spec
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.file) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the tables %d", c.name, len(c.file), len(c.src))
			continue
		}
		for i := range c.src {
			if c.file[i] != c.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, tables %+v", c.name, i, c.file[i], c.src[i])
			}
		}
	}
}
