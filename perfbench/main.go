// Command perfbench is the repository's benchmark: four workloads that
// time what users of gprof and gprofd wait for, end to end, and a
// separately traced run that times each layer from outside by wrapping
// the calls into its public functions. README.md explains the
// workloads and metrics; run it through run.py, which builds the
// programs from source first.
//
//	perfbench -workload cli_report -seed 1 -seconds 16 -trace 0 -bin DIR -work DIR
//	perfbench compare -spec BENCHMARK.json BASE_DIR NEW_DIR
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full record (host, sample counts, notes). A human-readable table
// goes to standard error. The exit code is nonzero when an output
// check failed or the benchmark could not run.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding the gprof, gprofd and tracecheck binaries
	work     string // scratch directory for inputs, artifacts and results
	root     string // repository root, for the source hash
}

// measured is one metric of a run: its value, unit and sample count.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// bench is one run of one workload.
type bench struct {
	cfg       config
	rec       *recorder // nil in untraced runs
	metrics   map[string]measured
	notes     map[string]string
	attempted int64
	failed    int64
	checks    []string // failed output checks
}

// set records a metric. A value that is not a finite number (a rate
// over no time) is recorded as 0 and noted, so the result stays JSON.
func (b *bench) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.note(name, "not measured: %g", v)
		v = 0
	}
	b.metrics[name] = measured{Value: v, Unit: unit, N: n}
}

// check records one output check; a failed one counts as a failed
// operation and makes the run incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		if len(b.checks) < 20 {
			b.checks = append(b.checks, msg)
		}
	}
}

// ops counts operations of the reference phase.
func (b *bench) ops(n, failed int) {
	b.attempted += int64(n)
	b.failed += int64(failed)
}

func (b *bench) note(key, format string, args ...any) {
	b.notes[key] = fmt.Sprintf(format, args...)
}

func (b *bench) duration() time.Duration { return time.Duration(b.cfg.seconds) * time.Second }

// setup runs fn setupReps times, records setup_s as the median, and
// returns the last result. Before every repetition but the first, the
// previous result is released with done.
func setup[T any](b *bench, fn func() (T, error), done func(T)) (T, error) {
	var out T
	var secs []float64
	reps := setupReps
	if b.rec != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 && done != nil {
			done(out)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return out, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		out = v
	}
	b.set("setup_s", median(secs), "s", len(secs))
	return out, nil
}

var workloadFns = map[string]func(*bench) error{
	"cli_report": runCLI,
	"ingest":     runIngest,
	"query_mix":  runQueryMix,
	"collect":    runCollect,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cli_report, ingest, query_mix or collect")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 16, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.bin, "bin", "", "directory of the built gprof, gprofd and tracecheck")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	cfg.trace = trace == 1
	fn, ok := workloadFns[cfg.workload]
	if !ok || cfg.bin == "" || cfg.work == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -bin, -work, -seconds >= 1, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{cfg: cfg, metrics: map[string]measured{}, notes: map[string]string{}}
	if cfg.trace {
		b.rec = newRecorder()
	}
	start := time.Now()
	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	os.Exit(b.finish(time.Since(start)))
}

func workloadNames() []string {
	var names []string
	for n := range workloadFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record is the full result of one run, written to the work directory
// and printed as the second-to-last line.
type record struct {
	Schema    string              `json:"schema"`
	Workload  string              `json:"workload"`
	Trace     bool                `json:"trace"`
	Seconds   int                 `json:"seconds"`
	Host      host                `json:"host"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Checks    []string            `json:"failed_checks,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	Notes     map[string]string   `json:"notes,omitempty"`
	WallS     float64             `json:"run_wall_s"`
}

// result is the last line of standard output, the one machine-read.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func (b *bench) finish(wall time.Duration) int {
	// A traced run reports every per-layer metric; a layer this
	// workload does not run reads 0. An untraced run reports exactly
	// the end-to-end metrics.
	want := endToEnd
	if b.cfg.trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := b.metrics[m.Name]; !ok {
				b.set(m.Name, 0, m.Unit, 0)
			}
		}
	}
	rec := record{
		Schema: "perfbench.result.v1", Workload: b.cfg.workload, Trace: b.cfg.trace,
		Seconds: b.cfg.seconds, Host: hostRecord(b.cfg), Correct: len(b.checks) == 0,
		Attempted: b.attempted, Failed: b.failed, Checks: b.checks,
		Metrics: map[string]measured{}, Notes: b.notes, WallS: wall.Seconds(),
	}
	// A failed check counts as a failed operation and makes the run
	// incorrect; a refused request counts as failed only.
	if rec.Attempted == 0 {
		rec.Attempted = 1
		rec.Correct = false
		rec.Checks = append(rec.Checks, "no operation attempted")
	}
	rec.FailRatio = float64(rec.Failed) / float64(rec.Attempted)
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]map[string]any{}}
	for _, m := range want {
		got, ok := b.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", b.cfg.workload, m.Name)
			return 1
		}
		if got.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured in %s, declared %s\n", m.Name, got.Unit, m.Unit)
			return 1
		}
		rec.Metrics[m.Name] = got
		res.Metrics[m.Name] = map[string]any{"value": got.Value, "unit": got.Unit}
	}
	if !b.cfg.trace {
		// Measured but not bounded (latency_tail_ms): the record and
		// the table keep it, the result line does not.
		for k, v := range b.metrics {
			if _, ok := rec.Metrics[k]; !ok {
				rec.Metrics[k] = v
				want = append(want[:len(want):len(want)], spec{Name: k, Unit: v.Unit})
			}
		}
	}
	printTable(os.Stderr, &rec, want)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(b.cfg.work, "results")
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", b.cfg.workload, b.cfg.seed, b.cfg.trace, time.Now().UnixNano())
	werr := os.MkdirAll(dir, 0o755)
	if werr == nil {
		werr = os.WriteFile(filepath.Join(dir, name), append(line, '\n'), 0o644)
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping the record:", werr)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", line, last)
	if !rec.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, rec *record, want []spec) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t cpus=%d gomaxprocs=%d cpu=%q go=%s source=%s\n",
		rec.Workload, rec.Host.Seed, rec.Trace, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.CPUModel,
		rec.Host.GoVersion, rec.Host.Source)
	for _, m := range want {
		got := rec.Metrics[m.Name]
		line := fmt.Sprintf("  %-36s %14.6g %-6s n=%d", m.Name, got.Value, got.Unit, got.N)
		if note, ok := rec.Notes[m.Name]; ok {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s attempted=%d failed=%d\n", "fail_ratio", rec.FailRatio, "ratio", rec.Attempted, rec.Failed)
	for _, c := range rec.Checks {
		fmt.Fprintln(w, "  FAILED CHECK:", c)
	}
}

// host identifies the machine and code a result was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func hostRecord(cfg config) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: cfg.seed, Commit: "unknown", Source: sourceHash(cfg.root)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sourceHash digests the repository's Go sources outside the benchmark
// and build directories, so a result names the code it measured even
// in a checkout without version control.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jobsLabel notes when a "jobsN" measurement ran serially.
func (b *bench) jobsLabel(name string) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.note(name, "serial: GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	} else {
		b.note(name, "jobs=%d", runtime.GOMAXPROCS(0))
	}
}
