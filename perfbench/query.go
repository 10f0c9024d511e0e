package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// query_mix sizing: operations at the reference rate, every
// queryPerUpload-th of them an upload to a synthetic executable that
// invalidates its cached analyses, the rest queries. Tying uploads to
// the operation count fixes the share of queries that find their
// executable's caches cold.
const (
	queryRefRate   = 70.0  // operations per second
	queryPerUpload = 20    // one upload per this many operations
	queryLimitMs   = 500.0 // p-tail latency limit of a ladder rung
	queryEndpoints = 4

	// queryWindows is how many consecutive windows the reference
	// phase's query latencies are summarized over (see windowed); at
	// the reference rate each holds over 200 queries, so its tail is
	// p95.
	queryWindows = 3
)

// querySizes are the routine counts of query_mix's synthetic
// executables: a cold analysis and render takes tens of milliseconds,
// short against the gaps between queries.
var querySizes = []int{1500, 2000, 2500}

var endpointNames = [queryEndpoints]string{"flat", "callgraph", "profile", "folded"}

// A query is one GET of an endpoint for an executable.
type query struct {
	item, endpoint int
}

// A mixOp is one operation of query_mix: a query, or an upload when
// upload >= 0.
type mixOp struct {
	q      query
	upload int
}

// mixSchedule draws n operations from the seed. Queries come in rounds,
// each a seeded permutation of every (executable, endpoint) pair the
// server can answer (folded needs stack data), so every stretch of the
// schedule has the same mix; every queryPerUpload-th operation is
// instead the next upload of a stratified schedule over the synthetic
// executables. The real programs stay warm.
func (s *served) mixSchedule(seed, stream uint64, n int) []mixOp {
	var all []query
	for item, it := range s.c.items {
		for ep := 0; ep < queryEndpoints; ep++ {
			if endpointNames[ep] != "folded" || it.stacks {
				all = append(all, query{item, ep})
			}
		}
	}
	uploads := s.c.schedule(seed, stream+1000, n/queryPerUpload+1, true)
	r := rand.New(rand.NewPCG(seed, stream))
	var round []int
	out := make([]mixOp, n)
	for i := range out {
		if (i+1)%queryPerUpload == 0 {
			out[i] = mixOp{upload: uploads[i/queryPerUpload]}
			continue
		}
		if len(round) == 0 {
			round = r.Perm(len(all))
		}
		out[i] = mixOp{q: all[round[0]], upload: -1}
		round = round[1:]
	}
	return out
}

func (s *served) mixOp(op mixOp, bs *bodies) bool {
	if op.upload >= 0 {
		return s.upload(op.upload)
	}
	return s.query(op.q, bs)
}

// split separates an operation log into query and upload samples.
func split(ops []mixOp, samples []opSample) (queries, uploads []opSample) {
	for i, o := range samples {
		if ops[i].upload >= 0 {
			uploads = append(uploads, o)
		} else {
			queries = append(queries, o)
		}
	}
	return queries, uploads
}

// bodies keeps one copy of every distinct 200 body per endpoint, so
// each is validated once after the measured phases instead of on the
// load generator's clock.
type bodies struct {
	mu   sync.Mutex
	seen [queryEndpoints]map[[32]byte][]byte
}

func (bs *bodies) add(ep int, body []byte) {
	sum := sha256.Sum256(body)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.seen[ep] == nil {
		bs.seen[ep] = map[[32]byte][]byte{}
	}
	if _, ok := bs.seen[ep][sum]; !ok {
		bs.seen[ep][sum] = body
	}
}

func (s *served) query(q query, bs *bodies) bool {
	code, body, err := s.d.get("/v1/" + endpointNames[q.endpoint] + "?fp=" + s.c.items[q.item].fp)
	if err != nil || code != http.StatusOK {
		s.refuse("/v1/"+endpointNames[q.endpoint], code, err)
		return false
	}
	bs.add(q.endpoint, body)
	return true
}

func runQueryMix(b *bench) error {
	s, err := setup(b, func() (*served, error) {
		s, err := startServed(b, querySizes, 3, 3)
		if err != nil {
			return nil, err
		}
		// Warm: answer every query once, so the measured phases start
		// from filled caches.
		for item := range s.c.items {
			for ep := 0; ep < queryEndpoints; ep++ {
				if endpointNames[ep] == "folded" && !s.c.items[item].stacks {
					continue
				}
				if !s.query(query{item, ep}, &bodies{}) {
					s.d.stop()
					return nil, fmt.Errorf("warm-up query %s of %s failed", endpointNames[ep], s.c.items[item].name)
				}
			}
		}
		return s, nil
	}, func(s *served) { s.d.stop() })
	if err != nil {
		return err
	}
	defer s.d.stop()
	phase := refPhase(b)
	bs := &bodies{}
	// Warm-up at the reference rate, unmeasured (see runIngest).
	warm := s.mixSchedule(b.cfg.seed, 4, int(queryRefRate*warmup.Seconds()))
	openLoop(time.Now(), queryRefRate, len(warm), conns(), func(i int) bool { return s.mixOp(warm[i], bs) })
	settle()
	before, err := s.d.observe()
	if err != nil {
		return err
	}
	sched := s.mixSchedule(b.cfg.seed, 1, int(queryRefRate*phase.Seconds()))
	samples := openLoop(time.Now(), queryRefRate, len(sched), conns(), func(i int) bool {
		sp := b.rec.begin(b.rec.op(), -1, "client.op")
		defer b.rec.end(sp)
		return s.mixOp(sched[i], bs)
	})
	qs, ups := split(sched, samples)
	ref, side := summarize(qs), summarize(ups)
	b.ops(ref.n+side.n, ref.failed+side.failed)
	b.note("latency_by_class", "%s", byClass(samples, func(i int) string {
		if sched[i].upload >= 0 {
			return "upload"
		}
		kind := "real"
		if s.c.items[sched[i].q.item].synthetic {
			kind = "synth"
		}
		return kind + "/" + endpointNames[sched[i].q.endpoint]
	}))
	after, err := s.d.observe()
	if err != nil {
		return err
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return err
	}
	if b.rec == nil {
		p50, t, pct, perWindow := windowed(qs, queryWindows)
		b.set("latency_p50_ms", finite(p50, phase), "ms", ref.n)
		b.note("latency_windows", "%s", perWindow)
		b.set("latency_tail_ms", finite(t, phase), "ms", ref.n)
		b.note("latency_tail_ms", "median over %d windows of p%g, %d queries, %g operations/s with one upload in %d, timed from due time",
			queryWindows, pct, ref.n, queryRefRate, queryPerUpload)
		b.set("peak_rss_mb", rss, "MB", 1)
		b.note("peak_rss_mb", "gprofd's high-water mark after the reference phase")
		// Capacity: a closed loop over the same mix; only answered
		// queries count as completed.
		capSched := s.mixSchedule(b.cfg.seed, 2, 1<<16)
		var tried, answered atomic.Int64
		took, err := capacity(b.duration()-phase, func(i int) {
			op := capSched[i%len(capSched)]
			ok := s.mixOp(op, bs)
			if op.upload < 0 {
				tried.Add(1)
				if ok {
					answered.Add(1)
				}
			}
		}, nil)
		if err != nil {
			return err
		}
		b.set("max_rate", float64(answered.Load())/took.Seconds(), "1/s", int(tried.Load()))
		b.note("max_rate", "queries answered per second, closed loop of %d connections over the same mix", conns())
	} else {
		s.serveDeltas(b, before, after)
		b.set("client.ladder_max_rate", s.ladder(queryLimitMs, rungs(queryRefRate), func(k, n int) func(int) bool {
			sched := s.mixSchedule(b.cfg.seed, uint64(10+k), n)
			return func(i int) bool { return s.mixOp(sched[i], bs) }
		}), "1/s", 4)
		b.note("client.ladder_max_rate", "highest of %v operations/s meeting a %gms tail", rungs(queryRefRate), queryLimitMs)
		late, _ := tail(ref.lateness)
		b.set("client.lateness_p99_ms", late, "ms", len(ref.lateness))
		p99, _ := tail(side.latency)
		b.set("client.ingest_p50_ms", finite(median(side.latency), phase), "ms", side.n)
		b.set("client.ingest_p99_ms", finite(p99, phase), "ms", side.n)
	}
	s.noteRefused(b)
	validateBodies(b, bs)
	if err := s.checkMerges(b); err != nil {
		return err
	}
	if err := s.checkAnalyses(b); err != nil {
		return err
	}
	if b.rec != nil {
		if err := writeDeltas(b, before, after); err != nil {
			return err
		}
		return s.queryLayers(b)
	}
	return nil
}

// validateBodies checks every distinct 200 body: the profile decodes
// under its schema and validates, the text reports carry their
// listings, and folded lines end in a sample count.
func validateBodies(b *bench, bs *bodies) {
	for ep, seen := range bs.seen {
		for _, body := range seen {
			switch endpointNames[ep] {
			case "profile":
				m, err := model.Decode(bytes.NewReader(body))
				if err == nil {
					err = m.Validate()
				}
				b.check(err == nil, "/v1/profile body does not decode: %v", err)
			case "flat":
				b.check(bytes.Contains(body, []byte("flat profile")), "/v1/flat body lacks the flat profile")
			case "callgraph":
				b.check(bytes.Contains(body, []byte("index")) && len(body) > 0, "/v1/callgraph body lacks the call graph listing")
			case "folded":
				b.check(foldedOK(body), "/v1/folded body is not collapsed stacks")
			}
		}
	}
}

func foldedOK(body []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Bytes()
		i := bytes.LastIndexByte(line, ' ')
		if i <= 0 {
			return false
		}
		if _, err := strconv.ParseUint(string(line[i+1:]), 10, 64); err != nil {
			return false
		}
		lines++
	}
	return sc.Err() == nil && lines > 0
}

// checkAnalyses compares each executable's synced /v1/flat and
// /v1/profile with an offline core.Run of the same merge.
func (s *served) checkAnalyses(b *bench) error {
	for i, item := range s.c.items {
		merged, err := s.l.offlineMerge(s.c, i)
		if err != nil {
			return err
		}
		res, err := core.Run(context.Background(), core.ImageSource{Image: item.im}, merged, core.Options{Jobs: 1})
		if err != nil {
			return err
		}
		for _, ep := range []struct {
			name  string
			write func(*bytes.Buffer) error
		}{
			{"flat", func(w *bytes.Buffer) error { return res.WriteFlat(w) }},
			{"profile", func(w *bytes.Buffer) error { return res.WriteJSON(w) }},
		} {
			var want bytes.Buffer
			if err := ep.write(&want); err != nil {
				return err
			}
			code, got, err := s.d.get("/v1/" + ep.name + "?sync=1&fp=" + item.fp)
			b.check(err == nil && code == http.StatusOK && bytes.Equal(got, want.Bytes()),
				"%s: synced /v1/%s (%d, %d bytes, %v) differs from offline core.Run (%d bytes)",
				item.name, ep.name, code, len(got), err, want.Len())
		}
	}
	return nil
}

// queryLayers replays a cold query in-process on the largest synthetic
// executable's merged profile: core.Run, then each renderer the query
// endpoints use.
func (s *served) queryLayers(b *bench) error {
	item := 0
	for i, it := range s.c.items {
		if it.synthetic && len(it.im.Funcs) > len(s.c.items[item].im.Funcs) {
			item = i
		}
	}
	merged, err := s.l.offlineMerge(s.c, item)
	if err != nil {
		return err
	}
	src := core.ImageSource{Image: s.c.items[item].im}
	opt := core.Options{Jobs: runtime.GOMAXPROCS(0)}
	var traced, plain []float64
	start := time.Now()
	for k := 0; len(plain) < 2 || time.Since(start) < b.duration()/4; k++ {
		for _, r := range b.rec.pair(k) {
			t0 := time.Now()
			op := r.op()
			root := r.begin(op, -1, "query.replay")
			var res *core.Result
			err := r.call(op, root, "core.run", func() (err error) {
				res, err = core.Run(context.Background(), src, merged, opt)
				return err
			})
			for _, rd := range []struct {
				span string
				fn   func(*bytes.Buffer) error
			}{
				{"report.render.flat", func(w *bytes.Buffer) error { return res.WriteFlat(w) }},
				{"report.render.callgraph", func(w *bytes.Buffer) error { return res.WriteCallGraph(w) }},
				{"report.render.json", func(w *bytes.Buffer) error { return res.WriteJSON(w) }},
			} {
				if err != nil {
					break
				}
				var buf bytes.Buffer
				err = r.call(op, root, rd.span, func() error { return rd.fn(&buf) })
			}
			r.end(root)
			if err != nil {
				return err
			}
			if r == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				traced = append(traced, time.Since(t0).Seconds())
			}
		}
	}
	for metric, span := range map[string]string{
		"core.run_s":                "core.run",
		"report.render_s.flat":      "report.render.flat",
		"report.render_s.callgraph": "report.render.callgraph",
		"report.render_s.json":      "report.render.json",
	} {
		xs := b.rec.spanSeconds(span)
		b.set(metric, median(xs), "s", len(xs))
	}
	b.note("core.run_s", "cold analysis of %s's merged profile (%d routines)", s.c.items[item].name, len(s.c.items[item].im.Funcs))
	return b.traceArtifacts("query.replay", traced, plain)
}
