package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/mon"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The parallel benchmark driver: runs the whole workload suite across a
// worker pool of independent machines (they share nothing — each worker
// owns its VM, memory image, and collector) and reports the domain
// metrics the paper's performance story is made of. cmd/benchjson
// serializes the result as the committed BENCH_*.json trajectory that
// future PRs regress against; BenchmarkWorkloadSuite (bench_test.go)
// drives the same code under `go test -bench`.

// WorkloadBench is one workload's measured row.
type WorkloadBench struct {
	Workload      string  `json:"workload"`
	Instructions  int64   `json:"instructions"`    // retired, profiled run
	PlainCycles   int64   `json:"plain_cycles"`    // simulated cycles, unprofiled build
	SimCycles     int64   `json:"sim_cycles"`      // simulated cycles, profiled build
	OverheadPct   float64 `json:"overhead_pct"`    // (sim-plain)/plain * 100, the paper's §7 number
	NsPerOp       float64 `json:"ns_per_op"`       // host wall time per profiled run (min over iters)
	NsPerInstr    float64 `json:"ns_per_instr"`    // NsPerOp / Instructions
	Ticks         int64   `json:"ticks"`           // histogram samples taken
	McountCalls   int64   `json:"mcount_calls"`    // arcs recorded
	ProbesPerCall float64 `json:"probes_per_call"` // extra hash probes per MCOUNT
	CacheHitRate  float64 `json:"cache_hit_rate"`  // last-arc cache hits per MCOUNT
	GmonV1Bytes   int64   `json:"gmon_v1_bytes"`   // profile data size, format version 1
	GmonV2Bytes   int64   `json:"gmon_v2_bytes"`   // profile data size, format version 2 (delta/varint)

	// The analysis side of the trajectory (bench.v3): one serial
	// core.Run over the workload's own profile, instrumented with an
	// obs trace, so the post-processor's stage costs travel in the same
	// row as the gathering costs they pay for.
	AnalysisNs     int64             `json:"analysis_ns"`     // host wall time of the analysis run
	AnalysisStages []obs.StageTiming `json:"analysis_stages"` // per-stage spans of that run
}

// BenchConfig controls a suite run.
type BenchConfig struct {
	Workers int // pool width; <1 means GOMAXPROCS
	Iters   int // timed repetitions per workload; the minimum wall time wins
}

// BenchSuite measures every workload and returns the rows sorted by
// name. Machines and collectors are created once per workload and
// reused across iterations via Reset, so short workloads time the
// execution engine rather than text decoding.
func BenchSuite(cfg BenchConfig) ([]WorkloadBench, error) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Iters < 1 {
		cfg.Iters = 3
	}
	names := workloads.Names()
	rows := make([]WorkloadBench, len(names))
	errs := make([]error, len(names))

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				rows[i], errs[i] = benchOne(names[i], cfg.Iters)
			}
		}()
	}
	for i := range names {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", names[i], err)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	return rows, nil
}

// benchOne measures a single workload on the calling goroutine.
func benchOne(name string, iters int) (WorkloadBench, error) {
	const maxCycles = 1 << 32

	plainIm, err := workloads.Build(name, false)
	if err != nil {
		return WorkloadBench{}, err
	}
	plainRes, err := vm.New(plainIm, vm.Config{MaxCycles: maxCycles}).Run()
	if err != nil {
		return WorkloadBench{}, err
	}

	profIm, err := workloads.Build(name, true)
	if err != nil {
		return WorkloadBench{}, err
	}
	collector := mon.New(profIm, mon.Config{})
	m := vm.New(profIm, vm.Config{Monitor: collector, MaxCycles: maxCycles})

	var (
		res  vm.Result
		best time.Duration = 1<<63 - 1
	)
	for it := 0; it < iters; it++ {
		m.Reset()
		collector.Reset()
		collector.Enable() // a workload may exit with monitoring stopped
		start := time.Now()
		res, err = m.Run()
		if d := time.Since(start); d < best {
			best = d
		}
		if err != nil {
			return WorkloadBench{}, err
		}
	}

	st := collector.Stats()
	row := WorkloadBench{
		Workload:     name,
		Instructions: res.Retired,
		PlainCycles:  plainRes.Cycles,
		SimCycles:    res.Cycles,
		NsPerOp:      float64(best.Nanoseconds()),
		Ticks:        res.Ticks,
		McountCalls:  st.McountCalls,
	}
	if plainRes.Cycles > 0 {
		row.OverheadPct = 100 * float64(res.Cycles-plainRes.Cycles) / float64(plainRes.Cycles)
	}
	if res.Retired > 0 {
		row.NsPerInstr = row.NsPerOp / float64(res.Retired)
	}
	if st.McountCalls > 0 {
		row.ProbesPerCall = float64(st.Probes) / float64(st.McountCalls)
		row.CacheHitRate = float64(st.CacheHits) / float64(st.McountCalls)
	}
	snap := collector.Snapshot()
	var buf bytes.Buffer
	if err := gmon.Write(&buf, snap); err != nil {
		return WorkloadBench{}, err
	}
	row.GmonV1Bytes = int64(buf.Len())
	buf.Reset()
	if err := gmon.WriteV2(&buf, snap); err != nil {
		return WorkloadBench{}, err
	}
	row.GmonV2Bytes = int64(buf.Len())

	// Analyze the profile we just gathered, under a private trace: the
	// report's stage rows become the row's analysis_stages.
	atr := obs.New()
	actx := obs.NewContext(context.Background(), atr)
	if _, err := core.Run(actx, core.ImageSource{Image: profIm}, snap, core.Options{}); err != nil {
		return WorkloadBench{}, err
	}
	rep := atr.Report()
	row.AnalysisNs = rep.WallNs
	row.AnalysisStages = rep.Stages
	return row, nil
}
