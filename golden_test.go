// Golden tests: the text output of the gprof pipeline (call graph
// profile, flat profile, index) is pinned byte-for-byte for every
// workload at -jobs 1, so presentation refactors can prove they do not
// drift. `make golden` (go test -run TestGolden -update .) regenerates
// the files under testdata/golden; CI diffs freshly generated goldens
// against the committed ones.
package repro

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenCase is one pinned pipeline run. Everything is deterministic:
// the VM is a simulated machine with a cycle-driven clock and a seeded
// rand(), so the same config always yields the same profile, and -jobs 1
// runs the serial analysis pipeline.
type goldenCase struct {
	name     string // golden file stem
	workload string
	opt      core.Options
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, w := range workloads.Names() {
		cases = append(cases, goldenCase{name: w, workload: w, opt: core.Options{Jobs: 1}})
	}
	// Option variants: static arcs complete the graph; the breaking
	// heuristic rewrites it. Both change the listing shape.
	cases = append(cases,
		goldenCase{name: "parser-static", workload: "parser", opt: core.Options{Jobs: 1, Static: true}},
		goldenCase{name: "service-autobreak", workload: "service", opt: core.Options{Jobs: 1, AutoBreak: true}},
	)
	return cases
}

// goldenRun executes one case and returns the analyzed result.
func goldenRun(t *testing.T, tc goldenCase) *core.Result {
	t.Helper()
	im, err := workloads.Build(tc.workload, true)
	if err != nil {
		t.Fatalf("build %s: %v", tc.workload, err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 7, TickCycles: 400, MaxCycles: 1 << 32})
	if err != nil {
		t.Fatalf("run %s: %v", tc.workload, err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, tc.opt)
	if err != nil {
		t.Fatalf("analyze %s: %v", tc.name, err)
	}
	return res
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `make golden`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run `make golden` if intended)\ngot %d bytes, want %d bytes\n%s",
			path, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("outputs agree for %d lines, then lengths differ", min(len(gl), len(wl)))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestGoldenText pins the full gprof text report (call graph profile,
// flat profile, index) for every case.
func TestGoldenText(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := goldenRun(t, tc)
			var buf bytes.Buffer
			if err := res.WriteAll(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", tc.name+".txt"), buf.Bytes())
		})
	}
}

// synthGoldenCases are the report variants pinned for a synthetic
// 2000-routine profile: large enough for four-digit indices, wide
// call-count columns, several cycles, spontaneous arcs and
// called+self entries, which the workload programs are too small to
// reach. Each is the -brief report under one display option.
var synthGoldenCases = []struct {
	name string
	opt  report.Options
}{
	{"synth-2000", report.Options{NoHeaders: true}},
	{"synth-2000-exclude", report.Options{NoHeaders: true, Exclude: []string{"main", "syn_000002", "syn_000768"}}},
	{"synth-2000-focus", report.Options{NoHeaders: true, Focus: []string{"syn_000084", "syn_00075d"}}},
	{"synth-2000-m", report.Options{NoHeaders: true, MinPercent: 0.5}},
}

// TestGoldenSynth pins the synthetic variants and checks that every
// -jobs width renders the same bytes.
func TestGoldenSynth(t *testing.T) {
	for _, tc := range synthGoldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, jobs := range []int{1, 4, 13} {
				w := synth.Generate(synth.Tier(2000, 1))
				res, err := core.Run(context.Background(), core.ImageSource{Image: w.Image()}, w.Prof,
					core.Options{Jobs: jobs, Report: tc.opt})
				if err != nil {
					t.Fatalf("jobs %d: %v", jobs, err)
				}
				var buf bytes.Buffer
				if err := res.WriteAll(&buf); err != nil {
					t.Fatal(err)
				}
				if jobs > 1 && *update {
					continue
				}
				checkGolden(t, filepath.Join("testdata", "golden", tc.name+".txt"), buf.Bytes())
			}
		})
	}
}

// TestGoldenJSON pins the versioned JSON encoding of the profile model
// (gprof -json) for every case: the schema is a published format, so
// accidental shape changes must show up as golden drift.
func TestGoldenJSON(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := goldenRun(t, tc)
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", tc.name+".json"), buf.Bytes())
		})
	}
}

// TestGoldenJSONRoundTrip proves the JSON encoding carries the entire
// presentation: decoding a committed golden JSON profile and rendering
// it reproduces the committed golden text byte for byte. This is the
// tentpole invariant — the model, not the graph, is what renderers see.
func TestGoldenJSONRoundTrip(t *testing.T) {
	if *update {
		t.Skip("goldens being rewritten")
	}
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".json"))
			if err != nil {
				t.Fatalf("missing golden (run `make golden`): %v", err)
			}
			m, err := model.Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			// The text goldens for plain cases have no cycle-break
			// preamble, so the model renders the same three sections.
			var buf bytes.Buffer
			if err := report.CallGraph(&buf, m, report.Options{}); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&buf)
			if err := report.Flat(&buf, m, report.Options{}); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&buf)
			if err := report.IndexListing(&buf, m); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			// The autobreak case prefixes a heuristic summary the model
			// does not carry; compare against the tail.
			if !bytes.HasSuffix(want, got) {
				t.Errorf("decoded model renders differently from the text golden\n%s",
					firstDiff(got, want[max(0, len(want)-len(got)):]))
			}
		})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
