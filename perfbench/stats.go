package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the percentile rule: it reports the highest percentile
// that has at least ten samples beyond it, by nearest rank. With fewer
// than twenty samples no percentile qualifies and the maximum is
// reported, labelled 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10-1e-9 {
			rank := int(math.Ceil(p*n/100 - 1e-9))
			if rank < 1 {
				rank = 1
			}
			return s[rank-1], p
		}
	}
	return s[len(s)-1], 100
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with quartiles interpolated the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method). It returns 0 for fewer than two samples or a zero median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1,
		// position j*m/4, linear between neighbours, clamped.
		m := n + 1
		k := j * m / 4
		delta := float64(j*m%4) / 4
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*delta
	}
	return at(1), at(3)
}

// An opSample is one operation of an open loop, timed on the
// benchmark's clock: due is when the schedule wanted the operation
// sent, sent when the generator issued it, and start when a connection
// was free to carry it.
type opSample struct {
	due, sent, start, end time.Duration
	ok                    bool
}

// loopSummary is what a run of operations reports.
type loopSummary struct {
	n, failed int
	// latency is each operation's time from its due time to its end, in
	// milliseconds; a failed operation counts as missing every limit
	// and is recorded as +Inf.
	latency []float64
	// lateness is how far behind its schedule the generator issued
	// each operation, in milliseconds.
	lateness []float64
	// wait is how long each operation waited from its due time for a
	// free connection, in milliseconds: the client-side backlog.
	wait []float64
}

func summarize(samples []opSample) loopSummary {
	s := loopSummary{n: len(samples)}
	for _, o := range samples {
		s.lateness = append(s.lateness, ms(o.sent-o.due))
		s.wait = append(s.wait, ms(o.start-o.due))
		if !o.ok {
			s.failed++
			s.latency = append(s.latency, math.Inf(1))
			continue
		}
		s.latency = append(s.latency, ms(o.end-o.due))
	}
	return s
}

// windowed splits an open loop's samples, in schedule order, into k
// consecutive windows and returns the medians over windows of each
// window's median latency and of its tail (by the percentile rule, at
// pct), so one transient stall moves one window, not the run's figure.
func windowed(samples []opSample, k int) (p50, tailMs, pct float64, perWindow string) {
	if len(samples) < k {
		k = 1
	}
	var p50s, tails []float64
	for w := 0; w < k; w++ {
		lat := summarize(samples[w*len(samples)/k : (w+1)*len(samples)/k]).latency
		t, p := tail(lat)
		p50s = append(p50s, median(lat))
		tails = append(tails, t)
		pct = p
	}
	return median(p50s), median(tails), pct, fmt.Sprintf("p50 %.4g, tail %.4g", p50s, tails)
}

// byClass describes each class of operation's latency (from due time)
// in one line, for the record's notes: where the median and the tail
// of a mixed workload come from.
func byClass(samples []opSample, class func(i int) string) string {
	groups := map[string][]opSample{}
	var names []string
	for i, o := range samples {
		c := class(i)
		if groups[c] == nil {
			names = append(names, c)
		}
		groups[c] = append(groups[c], o)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, c := range names {
		s := summarize(groups[c])
		l := sorted(s.latency)
		fmt.Fprintf(&b, "%s n=%d p50=%.3g max=%.3g; ", c, s.n, median(l), l[len(l)-1])
	}
	return b.String()
}

// meets reports whether a rung of an open loop met the latency limit:
// no failures, a tail within the limit, and no growing backlog — in
// the last quarter of the rung, operations waited at most limit for a
// connection, so the queue drained as fast as it formed.
func (s loopSummary) meets(limitMs float64) bool {
	if s.n == 0 || s.failed > 0 {
		return false
	}
	t, _ := tail(s.latency)
	if t > limitMs {
		return false
	}
	q := len(s.wait) / 4
	if q == 0 {
		q = 1
	}
	return median(s.wait[len(s.wait)-q:]) <= limitMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite replaces +Inf (a failed operation's latency) by the length of
// the phase it ran in, so a result stays a JSON number: a failed
// operation counts as having taken the whole phase.
func finite(v float64, phase time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(phase)
	}
	return v
}
