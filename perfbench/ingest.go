package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gmon"
)

// ingest sizing. The reference rate sits at about a fifth of the
// capacity of a 2-CPU host, where queueing amplifies the host's own
// stalls least; the ladder (traced runs) climbs from it.
const (
	ingestRefRate = 50.0 // uploads per second
	ingestLimitMs = 50.0 // p-tail latency limit of a ladder rung

	// ingestWindows is how many consecutive windows the reference
	// phase's latencies are summarized over (see windowed); at the
	// reference rate each holds about 100 uploads, so its tail is p90.
	ingestWindows = 5
)

// warmup is how long a server workload runs at its reference rate
// before measuring.
const warmup = time.Second

// refPhase is the share of a server run spent at the reference rate;
// the capacity phase takes the rest.
func refPhase(b *bench) time.Duration { return b.duration() * 2 / 3 }

// ingestSizes are the routine counts of the synthetic executables the
// ingest workload uploads profiles of: distinct images of ~10^4
// routines whose folds cost milliseconds.
var ingestSizes = []int{9000, 10000, 11000}

// conns is the most connections the benchmark opens to gprofd.
func conns() int { return runtime.NumCPU() }

// served is a started gprofd with the corpus registered and the
// ledger of what it accepted.
type served struct {
	d *gprofd
	c *corpus
	l *ledger

	mu      sync.Mutex
	refused map[string]int // why operations failed, for the record
}

// startServed builds the corpus, starts gprofd, registers every
// executable, and warms every shard with one upload of each body kind
// of the item's first profile.
func startServed(b *bench, sizes []int, synthVariants, realVariants int) (*served, error) {
	c, err := buildCorpus(b.cfg.seed, sizes, synthVariants, realVariants)
	if err != nil {
		return nil, err
	}
	d, err := startGprofd(b.cfg.bin, conns())
	if err != nil {
		return nil, err
	}
	s := &served{d: d, c: c, l: newLedger(c)}
	if err := c.register(d); err != nil {
		d.stop()
		return nil, err
	}
	for _, item := range c.items {
		for _, u := range item.uploads[:len(encodings)] {
			if ok := s.upload(u); !ok {
				d.stop()
				return nil, fmt.Errorf("warm-up upload to %s refused", item.name)
			}
		}
	}
	if err := s.syncAll(); err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// class names an upload's kind: the executable's kind and the body's
// encoding.
func (c *corpus) class(u int) string {
	item := c.items[c.uploads[u].item]
	kind := "real"
	if item.synthetic {
		kind = "synth"
	}
	k := 0
	for k = range item.uploads {
		if item.uploads[k] == u {
			break
		}
	}
	e := encodings[k%len(encodings)]
	z := ""
	if e.gzip {
		z = "gz"
	}
	return fmt.Sprintf("%s/v%d%s", kind, e.version, z)
}

// upload posts one corpus body and records it in the ledger when the
// server accepted it.
func (s *served) upload(u int) bool {
	up := s.c.uploads[u]
	code, _, err := s.d.post("/v1/ingest", s.c.items[up.item].fp, up.body)
	if err != nil || code != http.StatusAccepted {
		s.refuse("/v1/ingest", code, err)
		return false
	}
	s.l.add(up.item, u)
	return true
}

// refuse tallies a failed request by endpoint and status or error.
func (s *served) refuse(path string, code int, err error) {
	why := fmt.Sprintf("%s %d", path, code)
	if err != nil {
		why = fmt.Sprintf("%s %v", path, err)
	}
	s.mu.Lock()
	if s.refused == nil {
		s.refused = map[string]int{}
	}
	s.refused[why]++
	s.mu.Unlock()
}

// noteRefused records the failure tally in the run's notes.
func (s *served) noteRefused(b *bench) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.refused) > 0 {
		b.note("refused", "%v", s.refused)
	}
}

// syncAll waits until every shard has folded everything it accepted.
func (s *served) syncAll() error {
	for _, item := range s.c.items {
		code, body, err := s.d.get("/v1/gmon?sync=1&v=2&fp=" + item.fp)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("sync %s: %d %v %s", item.name, code, err, body)
		}
	}
	return nil
}

// checkMerges compares, for every executable, the server's merged raw
// profile with gmon.MergeAll of exactly the uploads it accepted. When
// an executable's uploads carry duplicate arc records, a fold's bytes
// depend on the order of the folds, which concurrent uploads do not
// fix; such a merge must then match after coalescing duplicate arcs,
// and is noted.
func (s *served) checkMerges(b *bench) error {
	var orderDependent []string
	for i, item := range s.c.items {
		want, err := s.l.offlineMerge(s.c, i)
		if err != nil {
			return err
		}
		code, got, err := s.d.get("/v1/gmon?sync=1&v=3&fp=" + item.fp)
		if err != nil || code != http.StatusOK {
			b.check(false, "%s: /v1/gmon: %d %v", item.name, code, err)
			continue
		}
		exact, err := encodeV3(want)
		if err != nil {
			return err
		}
		if bytes.Equal(got, exact) {
			b.check(true, "")
			continue
		}
		served, err := gmon.Read(bytes.NewReader(got))
		equal := false
		if err == nil && hasDuplicateArcs(s.c, s.l.accepted[i]) {
			a, errA := encodeV3(coalesced(served))
			w, errW := encodeV3(coalesced(want))
			equal = errA == nil && errW == nil && bytes.Equal(a, w)
			if equal {
				orderDependent = append(orderDependent, item.name)
			}
		}
		b.check(equal, "%s: /v1/gmon (%d bytes) differs from offline MergeAll of %d accepted uploads (%d bytes)",
			item.name, len(got), len(s.l.accepted[i]), len(exact))
	}
	if len(orderDependent) > 0 {
		b.note("merge_order_dependent", "%v: equal only after coalescing duplicate arc records", orderDependent)
	}
	return nil
}

func encodeV3(p *gmon.Profile) ([]byte, error) {
	var buf bytes.Buffer
	err := gmon.WriteVersion(&buf, p, gmon.Version3)
	return buf.Bytes(), err
}

type arcKey struct{ from, self int64 }

// hasDuplicateArcs reports whether any of the given uploads holds two
// arc records with the same caller site and callee.
func hasDuplicateArcs(c *corpus, uploads []int) bool {
	for _, u := range uploads {
		seen := map[arcKey]bool{}
		for _, a := range c.uploads[u].decoded.Arcs {
			k := arcKey{a.FromPC, a.SelfPC}
			if seen[k] {
				return true
			}
			seen[k] = true
		}
	}
	return false
}

// coalesced returns p with arc records of equal (caller site, callee)
// summed into one.
func coalesced(p *gmon.Profile) *gmon.Profile {
	q := p.Clone()
	idx := map[arcKey]int{}
	q.Arcs = q.Arcs[:0]
	for _, a := range p.Arcs {
		k := arcKey{a.FromPC, a.SelfPC}
		if i, ok := idx[k]; ok {
			q.Arcs[i].Count += a.Count
			continue
		}
		idx[k] = len(q.Arcs)
		q.Arcs = append(q.Arcs, a)
	}
	q.SortArcs()
	return q
}

// capacity runs a closed loop of conns workers for dur, then drain
// (nil, or the wait until the server has finished the work it
// accepted), and returns how long both took.
func capacity(dur time.Duration, do func(i int), drain func() error) (time.Duration, error) {
	t0 := time.Now()
	closedLoop(dur, conns(), do)
	if drain != nil {
		if err := drain(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func runIngest(b *bench) error {
	s, err := setup(b, func() (*served, error) { return startServed(b, ingestSizes, 4, 3) }, func(s *served) { s.d.stop() })
	if err != nil {
		return err
	}
	defer s.d.stop()
	phase := refPhase(b)
	// Warm-up at the reference rate, unmeasured, so the server's heap
	// and the connections reach their steady state first.
	warm := s.c.schedule(b.cfg.seed, 4, int(ingestRefRate*warmup.Seconds()), false)
	openLoop(time.Now(), ingestRefRate, len(warm), conns(), func(i int) bool { return s.upload(warm[i]) })
	settle()
	before, err := s.d.observe()
	if err != nil {
		return err
	}
	// Reference phase: an open loop at the reference rate.
	sched := s.c.schedule(b.cfg.seed, 1, int(ingestRefRate*phase.Seconds()), false)
	samples := openLoop(time.Now(), ingestRefRate, len(sched), conns(), func(i int) bool {
		sp := b.rec.begin(b.rec.op(), -1, "client.ingest")
		defer b.rec.end(sp)
		return s.upload(sched[i])
	})
	ref := summarize(samples)
	b.ops(ref.n, ref.failed)
	b.note("latency_by_class", "%s", byClass(samples, func(i int) string { return s.c.class(sched[i]) }))
	after, err := s.d.observe()
	if err != nil {
		return err
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return err
	}
	if b.rec != nil {
		if err := s.ingestLayers(b, before, after, ref); err != nil {
			return err
		}
	} else {
		b.set("peak_rss_mb", rss, "MB", 1)
		b.note("peak_rss_mb", "gprofd's high-water mark after the reference phase")
		p50, t, pct, perWindow := windowed(samples, ingestWindows)
		b.set("latency_p50_ms", finite(p50, phase), "ms", ref.n)
		b.note("latency_windows", "%s", perWindow)
		b.set("latency_tail_ms", finite(t, phase), "ms", ref.n)
		b.note("latency_tail_ms", "median over %d windows of p%g, %d uploads at %g/s, timed from due time",
			ingestWindows, pct, ref.n, ingestRefRate)
		// Capacity phase: a closed loop of conns uploaders; rejected
		// uploads (429 above saturation) do not count as completed.
		capSched := s.c.schedule(b.cfg.seed, 2, 1<<16, false)
		var tried, folded atomic.Int64
		took, err := capacity(b.duration()-phase, func(i int) {
			tried.Add(1)
			if s.upload(capSched[i%len(capSched)]) {
				folded.Add(1)
			}
		}, s.syncAll)
		if err != nil {
			return err
		}
		b.set("max_rate", float64(folded.Load())/took.Seconds(), "1/s", int(tried.Load()))
		b.note("max_rate", "uploads folded per second, closed loop of %d connections, drain included", conns())
	}
	s.noteRefused(b)
	return s.checkMerges(b)
}

// ingestLayers fills the traced ingest run's per-layer metrics: the
// server's own accounting over the reference phase, a ladder of fixed
// rates, and the decode and fold layers replayed in-process.
func (s *served) ingestLayers(b *bench, before, after *observe, ref loopSummary) error {
	s.serveDeltas(b, before, after)
	s.clientIngest(b, ref)
	b.set("client.ladder_max_rate", s.ladder(ingestLimitMs, rungs(ingestRefRate), func(k, n int) func(int) bool {
		sched := s.c.schedule(b.cfg.seed, uint64(10+k), n, false)
		return func(i int) bool { return s.upload(sched[i]) }
	}), "1/s", 4)
	b.note("client.ladder_max_rate", "highest of %v uploads/s meeting a %gms tail", rungs(ingestRefRate), ingestLimitMs)
	// Replay: decode each scheduled body and fold it into a
	// steady-state aggregate of its executable (the server's merge so
	// far), the two steps a shard runs per upload.
	aggs := make([]*gmon.Profile, len(s.c.items))
	for i := range s.c.items {
		p, err := s.l.offlineMerge(s.c, i)
		if err != nil {
			return err
		}
		aggs[i] = p.Clone() // the merge may share the corpus's profiles
	}
	sched := s.c.schedule(b.cfg.seed, 3, 4096, false)
	var traced, plain []float64
	var decodeBytes int64
	var arcs int
	start := time.Now()
	for k := 0; time.Since(start) < b.duration()/4 || k < 2; k++ {
		u := s.c.uploads[sched[k%len(sched)]]
		for _, r := range b.rec.pair(k) {
			t0 := time.Now()
			op := r.op()
			root := r.begin(op, -1, "ingest.replay")
			var p *gmon.Profile
			err := r.call(op, root, "gmon.decode", func() (err error) {
				p, err = gmon.Open(bytes.NewReader(u.body))
				return err
			})
			if err == nil {
				err = r.call(op, root, "gmon.fold", func() error { return aggs[u.item].Merge(p) })
			}
			r.end(root)
			if err != nil {
				return err
			}
			if r == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				traced = append(traced, time.Since(t0).Seconds())
				decodeBytes += int64(len(u.body))
				arcs += len(p.Arcs)
			}
		}
	}
	dec, _ := b.rec.spanTotal("gmon.decode")
	fold, folds := b.rec.spanTotal("gmon.fold")
	b.set("gmon.decode_mb_per_s", float64(decodeBytes)/1e6/dec.Seconds(), "MB/s", folds)
	b.set("gmon.fold_ms", ms(fold)/float64(folds), "ms", folds)
	b.note("gmon.fold_ms", "mean over the upload mix")
	b.set("gmon.arc_records", float64(arcs)/float64(folds), "count", folds)
	b.note("gmon.arc_records", "mean per upload")
	if err := writeDeltas(b, before, after); err != nil {
		return err
	}
	return b.traceArtifacts("ingest.replay", traced, plain)
}

// clientIngest reports upload latency as the client saw it.
func (s *served) clientIngest(b *bench, ref loopSummary) {
	ph := refPhase(b)
	p99, _ := tail(ref.latency)
	b.set("client.ingest_p50_ms", finite(median(ref.latency), ph), "ms", ref.n)
	b.set("client.ingest_p99_ms", finite(p99, ph), "ms", ref.n)
	late, _ := tail(ref.lateness)
	b.set("client.lateness_p99_ms", late, "ms", len(ref.lateness))
}

// serveDeltas reads the server's per-layer accounting over the
// measured interval from two /metrics and /v1/stats readings.
func (s *served) serveDeltas(b *bench, before, after *observe) {
	const durFam = "gprofd_http_request_duration_ns"
	ingest := map[string]string{"endpoint": "/v1/ingest", "code": "202"}
	if v, n := deltaQuantile(before, after, durFam, ingest, 0.5); n > 0 {
		b.set("serve.ingest_handler_p50_ms", v/1e6, "ms", int(n))
		v99, _ := deltaQuantile(before, after, durFam, ingest, 0.99)
		b.set("serve.ingest_handler_p99_ms", v99/1e6, "ms", int(n))
	}
	if v, n := deltaQuantile(before, after, "gprofd_shard_fold_duration_ns", nil, 0.5); n > 0 {
		b.set("serve.fold_p50_ms", v/1e6, "ms", int(n))
		v99, _ := deltaQuantile(before, after, "gprofd_shard_fold_duration_ns", nil, 0.99)
		b.set("serve.fold_p99_ms", v99/1e6, "ms", int(n))
	}
	if v, n := deltaQuantile(before, after, "gprofd_shard_queue_depth", nil, 0.99); n > 0 {
		b.set("serve.queue_depth_p99", v, "count", int(n))
	}
	const reqFam = "gprofd_http_requests_total"
	if all := counterDelta(before, after, reqFam, map[string]string{"endpoint": "/v1/ingest"}); all > 0 {
		rejected := counterDelta(before, after, reqFam, map[string]string{"endpoint": "/v1/ingest", "code": "429"})
		b.set("serve.backpressure_ratio", rejected/all, "ratio", int(all))
	}
	for _, ep := range []string{"flat", "callgraph", "profile", "folded"} {
		m := map[string]string{"endpoint": "/v1/" + ep, "code": "200"}
		if v, n := deltaQuantile(before, after, durFam, m, 0.5); n > 0 {
			b.set("serve.query_handler_p50_ms."+ep, v/1e6, "ms", int(n))
		}
	}
	x, y := before.stats, after.stats
	ratio := func(name string, num, den int64) {
		if den > 0 {
			b.set(name, float64(num)/float64(den), "ratio", int(den))
		}
	}
	sh, sm := y.SnapshotCacheHits-x.SnapshotCacheHits, y.SnapshotCacheMisses-x.SnapshotCacheMisses
	ratio("serve.snapshot_cache_hit_ratio", sh, sh+sm)
	ah, am := y.AnalysisCacheHits-x.AnalysisCacheHits, y.AnalysisCacheMisses-x.AnalysisCacheMisses
	ratio("serve.analysis_cache_hit_ratio", ah, ah+am)
	ratio("serve.coalesced_ratio", y.CoalescedQueries-x.CoalescedQueries, y.Queries-x.Queries)
}

// writeDeltas keeps the two /metrics and /v1/stats readings of the
// measured interval beside the trace, and their differences: every
// counter series and histogram count and sum that moved, and every
// numeric /v1/stats field that changed.
func writeDeltas(b *bench, before, after *observe) error {
	dir := filepath.Join(b.cfg.work, "trace", b.cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, o := range map[string]*observe{"before": before, "after": after} {
		if err := os.WriteFile(filepath.Join(dir, "metrics."+name+".txt"), o.raw, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "stats."+name+".json"), o.statsRaw, 0o644); err != nil {
			return err
		}
	}
	var out bytes.Buffer
	for _, f := range after.expo.Families {
		for _, smp := range f.Samples {
			if f.Kind != "counter" && !strings.HasSuffix(smp.Name, "_count") && !strings.HasSuffix(smp.Name, "_sum") {
				continue
			}
			var pairs []string
			for k, v := range smp.Labels {
				pairs = append(pairs, k, v)
			}
			was, _ := before.expo.Sample(smp.Name, pairs...)
			if d := smp.Value - was; d != 0 {
				fmt.Fprintf(&out, "%s{%s} %g\n", smp.Name, seriesKey(smp.Labels), d)
			}
		}
	}
	var x, y map[string]any
	json.Unmarshal(before.statsRaw, &x)
	json.Unmarshal(after.statsRaw, &y)
	var keys []string
	for k := range y {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, okA := y[k].(float64)
		z, okZ := x[k].(float64)
		if okA && okZ && a != z {
			fmt.Fprintf(&out, "stats.%s %g\n", k, a-z)
		}
	}
	return os.WriteFile(filepath.Join(dir, "deltas.txt"), out.Bytes(), 0o644)
}

// ladder drives an open loop at each rate for a short step and returns
// the highest rate whose tail met the limit with no growing backlog; 0
// when none did. It stops at the first rung that fails. mk returns the
// operation for rung k with n operations.
func (s *served) ladder(limitMs float64, rates []float64, mk func(k, n int) func(int) bool) float64 {
	const step = 1500 * time.Millisecond
	best := 0.0
	for k, rate := range rates {
		n := int(rate * step.Seconds())
		if !summarize(openLoop(time.Now(), rate, n, conns(), mk(k, n))).meets(limitMs) {
			break
		}
		best = rate
	}
	s.syncAll()
	return best
}

// rungs are the ladder's rates: multiples of a workload's reference
// rate.
func rungs(ref float64) []float64 {
	return []float64{ref, ref * 1.5, ref * 2.25, ref * 3.4}
}
