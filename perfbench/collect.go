package main

import (
	"bytes"
	"context"
	"fmt"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// collectPassFacts totals one profiled pass's counters.
type collectPassFacts struct {
	cycles, mcount, hits, retired int64
	arcs                          int
}

// collectPass builds every suite program, runs it under the profiler
// with stack sampling, and encodes its profile (gmon v3), checking the
// bytes against ref; with ref nil it fills ref instead.
func collectPass(b *bench, r *recorder, ref map[string][]byte) (collectPassFacts, error) {
	var f collectPassFacts
	op := r.op()
	root := r.begin(op, -1, "collect.pass")
	defer r.end(root)
	for _, name := range workloads.Names() {
		var im *object.Image
		if err := r.call(op, root, "lang.build", func() (err error) {
			im, err = workloads.Build(name, true)
			return err
		}); err != nil {
			return f, err
		}
		var p *gmon.Profile
		if err := r.call(op, root, "vm.run", func() error {
			pp, res, col, err := workloads.Run(im, workloads.RunConfig{Seed: b.cfg.seed, Stacks: true})
			if err != nil {
				return err
			}
			p = pp
			st := col.Stats()
			f.cycles += res.Cycles
			f.retired += res.Retired
			f.mcount += st.McountCalls
			f.hits += st.CacheHits
			return nil
		}); err != nil {
			return f, err
		}
		var buf bytes.Buffer
		if err := r.call(op, root, "gmon.write", func() error { return gmon.WriteV3(&buf, p) }); err != nil {
			return f, err
		}
		f.arcs += len(p.Arcs)
		if want, ok := ref[name]; ok {
			b.check(bytes.Equal(buf.Bytes(), want), "%s: profile bytes (%d) differ from the first pass (%d)", name, buf.Len(), len(want))
		} else {
			ref[name] = buf.Bytes()
		}
	}
	return f, nil
}

// collectSetup records the reference profiles and checks the paper's
// E2 conservation on each: the flat profile's self times plus lost
// ticks sum exactly to the total.
func collectSetup(b *bench) (map[string][]byte, error) {
	ref := map[string][]byte{}
	if _, err := collectPass(b, nil, ref); err != nil {
		return nil, err
	}
	for _, name := range workloads.Names() {
		im, err := workloads.Build(name, true)
		if err != nil {
			return nil, err
		}
		p, err := gmon.Read(bytes.NewReader(ref[name]))
		if err != nil {
			return nil, err
		}
		res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{Jobs: 1})
		if err != nil {
			return nil, err
		}
		var self float64
		for _, n := range res.Graph.Nodes() {
			self += n.SelfTicks
		}
		diff := self + res.Graph.LostTicks - res.Graph.TotalTicks
		b.check(diff == 0 && res.Graph.TotalTicks > 0, "%s: E2 conservation off by %g of %g ticks", name, diff, res.Graph.TotalTicks)
	}
	return ref, nil
}

func runCollect(b *bench) error {
	ref, err := setup(b, func() (map[string][]byte, error) { return collectSetup(b) }, nil)
	if err != nil {
		return err
	}
	if b.rec != nil {
		return collectTraced(b, ref)
	}
	var walls []float64
	var busy time.Duration
	settle()
	for t0 := time.Now(); time.Since(t0) < b.duration() || len(walls) == 0; {
		start := time.Now()
		if _, err := collectPass(b, nil, ref); err != nil {
			return err
		}
		wall := time.Since(start)
		busy += wall
		walls = append(walls, ms(wall))
	}
	b.ops(len(walls), 0)
	t, pct := tail(walls)
	b.set("latency_p50_ms", median(walls), "ms", len(walls))
	b.set("latency_tail_ms", t, "ms", len(walls))
	b.note("latency_tail_ms", "p%g of %d profiled passes over %d programs", pct, len(walls), len(workloads.Names()))
	b.set("max_rate", float64(len(walls))/busy.Seconds(), "1/s", len(walls))
	b.note("max_rate", "profiled passes per second, closed loop of one")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	b.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB", 1)
	b.note("peak_rss_mb", "the benchmark process, which runs the suite in-process")
	return nil
}

// collectTraced alternates traced and untraced profiled passes, then
// times the same programs unprofiled (workloads.RunPlain) for the
// monitoring overhead.
func collectTraced(b *bench, ref map[string][]byte) error {
	plainImages := map[string]*object.Image{}
	for _, name := range workloads.Names() {
		im, err := workloads.Build(name, false)
		if err != nil {
			return err
		}
		plainImages[name] = im
	}
	var traced, plain []float64
	var facts collectPassFacts
	var plainRun time.Duration
	var plainRetired int64
	for t0, k := time.Now(), 0; time.Since(t0) < b.duration() || len(plain) == 0; k++ {
		for _, r := range b.rec.pair(k) {
			start := time.Now()
			f, err := collectPass(b, r, ref)
			if err != nil {
				return err
			}
			if r == nil {
				plain = append(plain, time.Since(start).Seconds())
			} else {
				traced = append(traced, time.Since(start).Seconds())
				facts = f
			}
		}
		op := b.rec.op()
		root := b.rec.begin(op, -1, "collect.plain")
		for _, name := range workloads.Names() {
			start := time.Now()
			var res vm.Result
			err := b.rec.call(op, root, "vm.run_plain", func() (err error) {
				res, err = workloads.RunPlain(plainImages[name], workloads.RunConfig{Seed: b.cfg.seed})
				return err
			})
			if err != nil {
				return err
			}
			plainRun += time.Since(start)
			plainRetired += res.Retired
		}
		b.rec.end(root)
	}
	b.ops(len(traced)+len(plain), 0)
	passes := float64(len(traced))
	build, _ := b.rec.spanTotal("lang.build")
	run, _ := b.rec.spanTotal("vm.run")
	write, _ := b.rec.spanTotal("gmon.write")
	b.set("workloads.build_s", build.Seconds()/passes, "s", len(traced))
	b.note("workloads.build_s", "lang+asm+link of the whole suite, mean per pass")
	b.set("gmon.write_s", write.Seconds()/passes, "s", len(traced))
	b.set("gmon.arc_records", float64(facts.arcs), "count", 1)
	b.set("vm.ns_per_instr", float64(plainRun.Nanoseconds())/float64(plainRetired), "ns", int(plainRetired))
	b.set("vm.sim_cycles", float64(facts.cycles), "count", 1)
	plainPerPass := plainRun.Seconds() / passes
	b.set("mon.overhead_pct", (run.Seconds()/passes/plainPerPass-1)*100, "%", len(traced))
	b.note("mon.overhead_pct", "host time of profiled over unprofiled runs")
	b.set("mon.mcount_calls", float64(facts.mcount), "count", 1)
	if facts.mcount > 0 {
		b.set("mon.cache_hit_rate", float64(facts.hits)/float64(facts.mcount), "ratio", 1)
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced pass")
	}
	return b.traceArtifacts("collect.pass", traced, plain)
}
