package experiments

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/synth"
)

// The scale side of the performance trajectory (bench.v4): instead of
// the paper-faithful toy workloads, each tier is a synthetic call graph
// (internal/synth) of 10^3..10^6 routines written to disk as real
// profile data and pushed through the unmodified load → graph → SCC →
// propagate → model pipeline. The headline metric is
// profiles_analyzed_per_sec — how many such profiles one host could
// fully analyze per second, load included — which is the number a
// fleet-wide continuous-profiling deployment (gprofd) budgets against.

// ScaleTier is one measured scale point.
type ScaleTier struct {
	Nodes      int   `json:"nodes"`       // routine count of the tier
	Seed       int64 `json:"seed"`        // generator seed actually used
	ArcRecords int   `json:"arc_records"` // records in the profile data file
	GraphArcs  int   `json:"graph_arcs"`  // distinct arcs after merging
	Cycles     int   `json:"cycles"`      // SCC cycles discovered
	GmonBytes  int64 `json:"gmon_bytes"`  // on-disk size, format v2

	LoadNs   int64 `json:"load_ns"`           // mmap + decode, min over iters
	SerialNs int64 `json:"analyze_serial_ns"` // core.Run, min over iters

	// ProfilesPerSec is the headline: full profiles analyzed per second
	// at this tier, counting the load and the analysis.
	ProfilesPerSec float64 `json:"profiles_analyzed_per_sec"`
	NodesPerSec    float64 `json:"nodes_per_sec"` // Nodes / (load + analyze)
}

// ScaleConfig controls a scale-suite run.
type ScaleConfig struct {
	Tiers []int  // routine counts; nil means 1e3, 1e4, 1e5, 1e6
	Seed  uint64 // generator seed; 0 means 1
	Iters int    // timed repetitions per tier; the minimum wall time wins
}

// DefaultScaleTiers is the committed trajectory: three decades up to a
// million routines.
var DefaultScaleTiers = []int{1_000, 10_000, 100_000, 1_000_000}

// ScaleSuite generates, stores, loads, and analyzes one workload per
// tier and returns the measured rows in tier order. Tiers run one at a
// time so they do not contend; the profile data file lives in a private
// temp directory that is removed before return.
func ScaleSuite(cfg ScaleConfig) ([]ScaleTier, error) {
	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = DefaultScaleTiers
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Iters < 1 {
		cfg.Iters = 3
	}
	dir, err := os.MkdirTemp("", "scale-suite-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rows := make([]ScaleTier, 0, len(tiers))
	for _, n := range tiers {
		row, err := scaleOne(filepath.Join(dir, "gmon.out"), n, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleOne measures a single tier, writing its profile data to path.
func scaleOne(path string, nodes int, cfg ScaleConfig) (ScaleTier, error) {
	w := synth.Generate(synth.Tier(nodes, cfg.Seed))
	tab := w.Table()

	if err := gmon.WriteFileVersion(path, w.Prof, gmon.Version2); err != nil {
		return ScaleTier{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return ScaleTier{}, err
	}

	row := ScaleTier{
		Nodes:      nodes,
		Seed:       int64(cfg.Seed),
		ArcRecords: len(w.Prof.Arcs),
		GmonBytes:  st.Size(),
	}

	// Load: the zero-copy path (binio.Map under gmon.ReadFile). The
	// freshly decoded profile from the last iteration feeds the
	// analysis runs, so measured load and measured analysis see the
	// same bytes end to end.
	var p *gmon.Profile
	row.LoadNs = minNs(cfg.Iters, func() error {
		p, err = gmon.ReadFile(path)
		return err
	})
	if err != nil {
		return ScaleTier{}, err
	}

	// A GC and a dropped previous result before each timed run keep
	// one iteration's garbage from being charged to the next.
	src := core.TableSource{Table: tab}
	var res *core.Result
	row.SerialNs = int64(1<<63 - 1)
	for it := 0; it < cfg.Iters; it++ {
		res = nil
		runtime.GC()
		start := time.Now()
		res, err = core.Run(context.Background(), src, p, core.Options{})
		if err != nil {
			return ScaleTier{}, err
		}
		row.SerialNs = min(row.SerialNs, time.Since(start).Nanoseconds())
	}

	row.GraphArcs = res.Graph.NumArcs()
	row.Cycles = len(res.Graph.Cycles)
	if total := row.LoadNs + row.SerialNs; total > 0 {
		row.ProfilesPerSec = 1e9 / float64(total)
		row.NodesPerSec = float64(nodes) * 1e9 / float64(total)
	}
	return row, nil
}

// minNs runs f iters times and returns the minimum wall time in
// nanoseconds; the first error aborts (f's error is left for the
// caller's captured variable).
func minNs(iters int, f func() error) int64 {
	best := int64(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0
		}
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}
