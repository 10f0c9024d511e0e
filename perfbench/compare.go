package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// verdict is the comparison of one (workload, metric) pair across two
// sets of runs.
type verdict struct {
	BaseMedian, NewMedian float64
	// Score is the change as a ratio oriented so that above 1 is worse:
	// new/base for a lower-is-better metric, base/new for a
	// higher-is-better one. A halved rate and a doubled latency both
	// score 2.
	Score                 float64
	BaseSpread, NewSpread float64
	Status                string // "regressed", "improved", "unchanged" or "unresolved"
}

// score compares two sets of runs of one metric against its bound. A
// set whose spread (quartile distance over median) exceeds the bound
// cannot tell a change from noise: the pair is unresolved unless every
// new run is better than every base run.
func score(base, new []float64, better string, bound float64) verdict {
	v := verdict{BaseMedian: median(base), NewMedian: median(new),
		BaseSpread: quartileSpread(base), NewSpread: quartileSpread(new)}
	worse := func(a, b float64) bool { // a worse than b
		if better == "higher" {
			return a < b
		}
		return a > b
	}
	if len(base) == 0 || len(new) == 0 || v.BaseMedian <= 0 || v.NewMedian <= 0 {
		v.Status = "unresolved"
		return v
	}
	v.Score = v.NewMedian / v.BaseMedian
	if better == "higher" {
		v.Score = v.BaseMedian / v.NewMedian
	}
	allBetter := true
	for _, n := range new {
		for _, b := range base {
			if !worse(b, n) {
				allBetter = false
			}
		}
	}
	switch {
	case v.BaseSpread > bound || v.NewSpread > bound:
		v.Status = "unresolved"
		if allBetter {
			v.Status = "improved"
		}
	case v.Score > 1+bound:
		v.Status = "regressed"
	case 1/v.Score > 1+bound && allBetter:
		v.Status = "improved"
	default:
		v.Status = "unchanged"
	}
	return v
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads every untraced perfbench record under path (a
// record file or a directory of them), grouped by workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.json"))
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil || r.Schema != "perfbench.result.v1" || r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareMain compares two sets of runs (result directories of two
// commits) metric by metric and exits 1 if any pair regressed beyond
// its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] BASE NEW  (result files or directories)")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	next, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var wls []string
	for w := range base {
		if next[w] != nil {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	regressed := 0
	fmt.Printf("%-11s %-16s %12s %12s %7s %7s %7s  %s\n", "workload", "metric", "base", "new", "score", "spread", "bound", "status")
	for _, w := range wls {
		for _, m := range spec.EndToEnd {
			b, n := base[w][m.Name], next[w][m.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := score(b, n, m.Better, m.Bound)
			if v.Status == "regressed" {
				regressed++
			}
			spread := v.BaseSpread
			if v.NewSpread > spread {
				spread = v.NewSpread
			}
			fmt.Printf("%-11s %-16s %12.5g %12.5g %7.3f %7.3f %7.3f  %s (n=%d/%d)\n", w, m.Name, v.BaseMedian, v.NewMedian,
				v.Score, spread, m.Bound, strings.ToUpper(v.Status), len(b), len(n))
		}
	}
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}
