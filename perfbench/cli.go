package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/symtab"
	"repro/internal/synth"
)

// cli_report sizing: one executable of cliNodes routines and cliFiles
// differently seeded profiles of it, summed by one gprof job.
const (
	cliNodes = 30000
	cliFiles = 4
)

type cliInputs struct {
	exe      string
	profiles []string
	ref      [32]byte // SHA-256 of the serial in-process report
	refBytes int64
}

// cliSetup writes the inputs and computes the reference report with the
// serial pipeline (core.Run with Jobs 1, then WriteAll).
func cliSetup(b *bench) (*cliInputs, error) {
	dir := filepath.Join(b.cfg.work, "cli")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &cliInputs{exe: filepath.Join(dir, "a.out")}
	for k := 0; k < cliFiles; k++ {
		w := synth.Generate(synth.Tier(cliNodes, b.cfg.seed*cliFiles+uint64(k)+1))
		if k == 0 {
			// The image depends on the routine count only, so every
			// seeded profile is of this one executable.
			if err := object.WriteImageFile(in.exe, w.Image()); err != nil {
				return nil, err
			}
		}
		name := filepath.Join(dir, fmt.Sprintf("gmon.%d", k+1))
		if err := gmon.WriteFileVersion(name, w.Prof, gmon.Version2); err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, name)
	}
	ctx := context.Background()
	p, err := core.LoadProfiles(ctx, in.profiles, 1)
	if err != nil {
		return nil, err
	}
	im, err := object.ReadImageFile(in.exe)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(ctx, core.ImageSource{Image: im}, p, core.Options{Jobs: 1, Report: report.Options{NoHeaders: true}})
	if err != nil {
		return nil, err
	}
	h := &hashWriter{h: sha256.New()}
	bw := bufio.NewWriter(h)
	if err := res.WriteAll(bw); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	copy(in.ref[:], h.h.Sum(nil))
	in.refBytes = h.n
	return in, nil
}

func hashFile(name string) (sum [32]byte, n int64, err error) {
	f, err := os.Open(name)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err = io.Copy(h, f)
	copy(sum[:], h.Sum(nil))
	return sum, n, err
}

// settle returns the set-up's garbage to the OS before the clock
// starts, so the benchmark process's own collector and scavenger do not
// run beside what it measures.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

type hashWriter struct {
	h interface {
		io.Writer
		Sum([]byte) []byte
	}
	n int64
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func runCLI(b *bench) error {
	in, err := setup(b, func() (*cliInputs, error) { return cliSetup(b) }, nil)
	if err != nil {
		return err
	}
	if b.rec != nil {
		return cliTraced(b, in)
	}
	// Closed loop: one gprof job at a time, as a user runs it — with
	// its default -jobs and stdout redirected to a file — timed from
	// exec until the process has written the last report byte and
	// exited. The report is checked after the clock stops.
	var walls, rss []float64
	var busy time.Duration
	gprof := filepath.Join(b.cfg.bin, "gprof")
	reportPath := filepath.Join(b.cfg.work, "cli", "report")
	settle()
	for t0 := time.Now(); time.Since(t0) < b.duration() || len(walls) == 0; {
		out, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		var stderr bytes.Buffer
		cmd := exec.Command(gprof, append([]string{"-brief", in.exe}, in.profiles...)...)
		cmd.Stdout = out
		cmd.Stderr = &stderr
		start := time.Now()
		err = cmd.Run()
		wall := time.Since(start)
		out.Close()
		b.ops(1, 0)
		if err != nil {
			b.check(false, "gprof: %v: %s", err, stderr.String())
			continue
		}
		sum, n, err := hashFile(reportPath)
		if err != nil {
			return err
		}
		b.check(sum == in.ref, "gprof report (%d bytes) differs from the serial in-process reference (%d bytes)", n, in.refBytes)
		walls = append(walls, ms(wall))
		busy += wall
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, float64(ru.Maxrss)/1024)
		}
	}
	os.Remove(reportPath)
	if len(walls) == 0 {
		return fmt.Errorf("no gprof job succeeded")
	}
	t, pct := tail(walls)
	b.set("latency_p50_ms", median(walls), "ms", len(walls))
	b.set("latency_tail_ms", t, "ms", len(walls))
	b.note("latency_tail_ms", "p%g of %d jobs", pct, len(walls))
	b.set("max_rate", float64(len(walls))/busy.Seconds(), "1/s", len(walls))
	b.note("max_rate", "gprof jobs per second, closed loop of one")
	b.set("peak_rss_mb", median(rss), "MB", len(rss))
	b.note("peak_rss_mb", "median over jobs of the gprof process's max RSS")
	return nil
}

// cliPipeline replays gprof's pipeline in-process, calling each layer's
// public functions in the order the CLI and core.Run do, with a span
// around every call (rec may be nil). It returns the report's hash so
// the replica is checked against the real CLI's output.
func cliPipeline(rec *recorder, in *cliInputs, jobs int) (sum [32]byte, n int64, facts cliFacts, err error) {
	ctx := context.Background()
	op := rec.op()
	root := rec.begin(op, -1, "cli.report")
	defer rec.end(root)
	call := func(name string, fn func() error) error {
		if err != nil {
			return err
		}
		err = rec.call(op, root, name, fn)
		return err
	}
	files := make([]*gmon.Profile, len(in.profiles))
	for i, name := range in.profiles {
		call("gmon.read", func() (err error) {
			files[i], err = gmon.ReadFile(name)
			return err
		})
	}
	var p *gmon.Profile
	call("gmon.merge", func() (err error) {
		p, err = gmon.MergeAll(ctx, files, jobs)
		return err
	})
	var im *object.Image
	call("object.read_image", func() (err error) {
		im, err = object.ReadImageFile(in.exe)
		return err
	})
	var tab *symtab.Table
	call("symtab.new", func() error {
		tab = symtab.New(im)
		return tab.Validate()
	})
	var g *callgraph.Graph
	call("callgraph.build", func() (err error) {
		g, err = callgraph.BuildCtx(ctx, tab, p, jobs)
		return err
	})
	call("scc.analyze", func() error {
		scc.Analyze(g)
		return nil
	})
	// The propagate layer publishes its level count on an attached
	// trace; only the traced replica attaches one.
	pctx := ctx
	var tr *obs.Trace
	if rec != nil {
		tr = obs.New()
		pctx = obs.NewContext(ctx, tr)
	}
	call("propagate.run", func() error { return propagate.RunCtx(pctx, g, jobs) })
	call("propagate.check", func() error {
		if lost := propagate.CheckConservation(g); lost > 1e-6*(1+g.TotalTicks) {
			return fmt.Errorf("propagation lost %g ticks", lost)
		}
		return nil
	})
	var m *model.Profile
	call("model.build", func() error {
		m = model.Build(g)
		if len(p.Stacks) > 0 {
			m.Stacks = model.BuildStacks(p.Stacks, func(pc int64) (string, bool) {
				fn, ok := tab.Find(pc)
				return fn.Name, ok
			}, mon.DefaultStackDepth)
			m.Schema = model.SchemaV2
		}
		return nil
	})
	h := &hashWriter{h: sha256.New()}
	call("report.render", func() error {
		opt := report.Options{NoHeaders: true}
		w := bufio.NewWriter(h)
		if err := report.CallGraph(w, m, opt); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.Flat(w, m, opt); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.IndexListing(w, m); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return sum, 0, facts, err
	}
	copy(sum[:], h.h.Sum(nil))
	facts = cliFacts{arcs: len(p.Arcs), nodes: g.Len(), graphArcs: g.NumArcs(), cycles: len(g.Cycles),
		levels: tr.Gauge("propagate.levels").Value()}
	return sum, h.n, facts, nil
}

type cliFacts struct {
	arcs, nodes, graphArcs, cycles int
	levels                         int64
}

// cliSerial times the stages that take a worker count at one worker,
// as their own operation, so jobs1 and jobsN read side by side.
func cliSerial(rec *recorder, in *cliInputs) error {
	ctx := context.Background()
	files := make([]*gmon.Profile, len(in.profiles))
	for i, name := range in.profiles {
		var err error
		if files[i], err = gmon.ReadFile(name); err != nil {
			return err
		}
	}
	im, err := object.ReadImageFile(in.exe)
	if err != nil {
		return err
	}
	tab := symtab.New(im)
	op := rec.op()
	root := rec.begin(op, -1, "cli.serial")
	defer rec.end(root)
	var p *gmon.Profile
	if err := rec.call(op, root, "gmon.merge.jobs1", func() (err error) {
		p, err = gmon.MergeAll(ctx, files, 1)
		return err
	}); err != nil {
		return err
	}
	var g *callgraph.Graph
	if err := rec.call(op, root, "callgraph.build.jobs1", func() (err error) {
		g, err = callgraph.BuildCtx(ctx, tab, p, 1)
		return err
	}); err != nil {
		return err
	}
	scc.Analyze(g)
	return rec.call(op, root, "propagate.run.jobs1", func() error { return propagate.RunCtx(ctx, g, 1) })
}

// cliTraced alternates traced and untraced replicas of the pipeline for
// the run's time, then times the serial stages once.
func cliTraced(b *bench, in *cliInputs) error {
	jobs := runtime.GOMAXPROCS(0)
	var traced, plain []float64
	var facts cliFacts
	var n int64
	for t0, k := time.Now(), 0; time.Since(t0) < b.duration() || len(plain) == 0; k++ {
		for _, r := range b.rec.pair(k) {
			start := time.Now()
			sum, bytes, f, err := cliPipeline(r, in, jobs)
			wall := time.Since(start).Seconds()
			if err != nil {
				return err
			}
			b.check(sum == in.ref, "in-process replica report (%d bytes) differs from the CLI reference (%d bytes)", bytes, in.refBytes)
			if r == nil {
				plain = append(plain, wall)
			} else {
				traced = append(traced, wall)
				facts, n = f, bytes
			}
		}
	}
	b.ops(len(traced)+len(plain), 0)
	if err := cliSerial(b.rec, in); err != nil {
		return err
	}
	imSize := fileSize(in.exe)
	var gmonSize int64
	for _, p := range in.profiles {
		gmonSize += fileSize(p)
	}
	med := func(span string) (float64, int) {
		xs := b.rec.spanSeconds(span)
		return median(xs), len(xs)
	}
	secs := func(metric, span string) float64 {
		v, k := med(span)
		b.set(metric, v, "s", k)
		return v
	}
	if v := secs("object.read_image_s", "object.read_image"); v > 0 {
		b.set("object.read_image_mb_per_s", float64(imSize)/1e6/v, "MB/s", len(traced))
	}
	if v := secs("gmon.read_s", "gmon.read"); v > 0 {
		b.set("gmon.read_mb_per_s", float64(gmonSize)/float64(len(in.profiles))/1e6/v, "MB/s", len(traced))
	}
	secs("gmon.merge_s.jobs1", "gmon.merge.jobs1")
	secs("gmon.merge_s.jobsN", "gmon.merge")
	b.set("gmon.arc_records", float64(facts.arcs), "count", 1)
	secs("symtab.new_s", "symtab.new")
	secs("callgraph.build_s.jobs1", "callgraph.build.jobs1")
	secs("callgraph.build_s.jobsN", "callgraph.build")
	b.set("callgraph.nodes", float64(facts.nodes), "count", 1)
	b.set("callgraph.arcs", float64(facts.graphArcs), "count", 1)
	secs("scc.analyze_s", "scc.analyze")
	b.set("scc.cycles", float64(facts.cycles), "count", 1)
	secs("propagate.run_s.jobs1", "propagate.run.jobs1")
	secs("propagate.run_s.jobsN", "propagate.run")
	b.set("propagate.levels", float64(facts.levels), "count", 1)
	if facts.levels == 0 {
		b.note("propagate.levels", "serial propagation publishes no level count")
	}
	secs("model.build_s", "model.build")
	if v := secs("report.render_s", "report.render"); v > 0 {
		b.set("report.render_mb_per_s", float64(n)/1e6/v, "MB/s", len(traced))
	}
	b.set("report.bytes", float64(n), "count", 1)
	for _, name := range []string{"gmon.merge_s.jobsN", "callgraph.build_s.jobsN", "propagate.run_s.jobsN"} {
		b.jobsLabel(name)
	}
	return b.traceArtifacts("cli.report", traced, plain)
}

// traceArtifacts writes the Chrome trace and the self-time table,
// validates the trace with the repository's tracecheck, and reports
// coverage and the tracing overhead (summed traced over summed
// untraced wall of the same operations).
func (b *bench) traceArtifacts(root string, traced, plain []float64) error {
	dir := filepath.Join(b.cfg.work, "trace", b.cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(dir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := b.rec.writeChrome(f, "perfbench "+b.cfg.workload); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	out, err := exec.Command(filepath.Join(b.cfg.bin, "tracecheck"), tracePath).CombinedOutput()
	b.check(err == nil, "tracecheck rejected %s: %v: %s", tracePath, err, out)
	sum := b.rec.summarize(root)
	var tbl bytes.Buffer
	fmt.Fprintf(&tbl, "layer self time over %d %q operations (%.3fs of operation wall)\n", len(traced), root, sum.rootWall.Seconds())
	fmt.Fprintf(&tbl, "%-12s %8s %12s %8s\n", "layer", "calls", "self_s", "share")
	for _, r := range sum.rows {
		fmt.Fprintf(&tbl, "%-12s %8d %12.6f %8.4f\n", r.Layer, r.Calls, r.SelfS, r.Share)
	}
	fmt.Fprintf(&tbl, "%-12s %8s %12s %8.4f\n", "coverage", "", "", sum.coverage)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), tbl.Bytes(), 0o644); err != nil {
		return err
	}
	os.Stderr.Write(tbl.Bytes())
	b.set("trace.coverage", sum.coverage, "ratio", len(traced))
	if total(plain) > 0 {
		b.set("trace.overhead_pct", (total(traced)/total(plain)-1)*100, "%", len(traced)+len(plain))
	}
	b.note("trace.coverage", "artifacts in %s", dir)
	return nil
}

func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func fileSize(name string) int64 {
	st, err := os.Stat(name)
	if err != nil {
		return 0
	}
	return st.Size()
}
