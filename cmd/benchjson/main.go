// Command benchjson produces the BENCH_*.json performance snapshots the
// repository commits so every PR can regress against its predecessors
// (ROADMAP: "fast as the hardware allows" needs a measured trajectory).
//
// It runs the workload suite on the parallel bench driver
// (experiments.BenchSuite) and, optionally, folds in the output of a
// `go test -bench` run so host-level micro-benchmarks travel in the same
// file as the domain metrics.
//
// Usage:
//
//	benchjson -label PR2 -o BENCH_PR2.json
//	benchjson -label PR7 -scale -o BENCH_PR7.json
//	benchjson -label PR8 -scale -query -o BENCH_PR8.json
//	go test -run '^$' -bench . -benchtime=1x . | benchjson -label PR2 -parse - -o BENCH_PR2.json
//
// -scale adds the synthetic scale suite (experiments.ScaleSuite):
// 10^3..10^6-routine workloads through the full pipeline, with
// profiles_analyzed_per_sec as the headline rate per tier.
//
// -query adds the gprofd query suite (experiments.QuerySuite): cold vs
// warm /v1/flat latency against an in-process server (the warm_speedup
// figure pins the incremental read path's >= 10x bar) plus the query
// rate sustained under concurrent ingest.
//
// The schema is documented in docs/FORMATS.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// File is the BENCH_*.json document. Field order is the wire order.
type File struct {
	Schema    string                      `json:"schema"` // "bench.v7"
	Label     string                      `json:"label"`  // e.g. "PR2"
	Go        string                      `json:"go"`
	GOOS      string                      `json:"goos"`
	GOARCH    string                      `json:"goarch"`
	Workers   int                         `json:"workers"`
	Iters     int                         `json:"iters"`
	Workloads []experiments.WorkloadBench `json:"workloads"`
	Scale     []experiments.ScaleTier     `json:"scale,omitempty"`
	Query     *experiments.QueryBench     `json:"query,omitempty"`
	GoBench   []GoBench                   `json:"go_bench,omitempty"`
}

// GoBench is one parsed `go test -bench` result line.
type GoBench struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op": 42
}

// parseGoBench extracts benchmark lines ("BenchmarkX-8  100  42 ns/op
// 7 allocs/op ..."): after the iteration count, values and units
// alternate. Non-benchmark lines are ignored.
func parseGoBench(r io.Reader) ([]GoBench, error) {
	var out []GoBench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Drop the -N GOMAXPROCS suffix go test appends to each name.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := GoBench{
			Name:    name,
			Iters:   iters,
			Metrics: make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

func main() {
	var prof obs.Pprof
	prof.RegisterFlags(flag.CommandLine)
	var (
		label   = flag.String("label", "dev", "snapshot label recorded in the file (e.g. PR2)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "bench driver pool width")
		iters   = flag.Int("iters", 3, "timed repetitions per workload; minimum wins")
		out     = flag.String("o", "", "output path ('' or '-' means stdout)")
		parse   = flag.String("parse", "", "also parse `go test -bench` output from this file ('-' = stdin)")
		noSuite = flag.Bool("nosuite", false, "skip the workload-suite driver (parse only)")
		scale   = flag.Bool("scale", false, "also run the synthetic scale suite (10^3..10^6 routines)")
		scMax   = flag.Int("scalemax", 1_000_000, "largest scale tier to run")
		scSeed  = flag.Uint64("scaleseed", 1, "scale-suite generator seed")
		scIters = flag.Int("scaleiters", 3, "timed repetitions per scale tier")
		query   = flag.Bool("query", false, "also run the gprofd query suite (cold/warm latency, mixed traffic)")
		qIters  = flag.Int("queryiters", 5, "cold-query repetitions; minimum wins")
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	defer prof.Stop()

	f := File{
		Schema:  "bench.v7",
		Label:   *label,
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Workers: *workers,
		Iters:   *iters,
	}

	if !*noSuite {
		rows, err := experiments.BenchSuite(experiments.BenchConfig{Workers: *workers, Iters: *iters})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		f.Workloads = rows
	}

	if *scale {
		var tiers []int
		for _, t := range experiments.DefaultScaleTiers {
			if t <= *scMax {
				tiers = append(tiers, t)
			}
		}
		rows, err := experiments.ScaleSuite(experiments.ScaleConfig{
			Tiers: tiers,
			Seed:  *scSeed,
			Iters: *scIters,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: scale: %v\n", err)
			os.Exit(1)
		}
		f.Scale = rows
	}

	if *query {
		row, err := experiments.QuerySuite(experiments.QueryConfig{Iters: *qIters})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: query: %v\n", err)
			os.Exit(1)
		}
		f.Query = &row
	}

	if *parse != "" {
		src := os.Stdin
		if *parse != "-" {
			file, err := os.Open(*parse)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			defer file.Close()
			src = file
		}
		gb, err := parseGoBench(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse: %v\n", err)
			os.Exit(1)
		}
		f.GoBench = gb
	}

	enc, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
