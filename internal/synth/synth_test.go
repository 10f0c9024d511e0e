package synth

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gmon"
)

// encode serializes a workload's profile in the given format version.
func encode(t *testing.T, w *Workload, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, w.Prof, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicPerSeed pins the generator contract: same seed,
// same bytes — across the profile encoding and the symbol table — and
// a different seed changes them.
func TestDeterministicPerSeed(t *testing.T) {
	a := Generate(Tier(5000, 7))
	b := Generate(Tier(5000, 7))
	if !bytes.Equal(encode(t, a, gmon.Version1), encode(t, b, gmon.Version1)) {
		t.Fatal("same seed produced different profile bytes")
	}
	if len(a.Syms) != len(b.Syms) {
		t.Fatalf("same seed produced different symbol counts: %d vs %d", len(a.Syms), len(b.Syms))
	}
	for i := range a.Syms {
		if a.Syms[i].Name != b.Syms[i].Name || a.Syms[i].Addr != b.Syms[i].Addr {
			t.Fatalf("same seed, symbol %d differs: %+v vs %+v", i, a.Syms[i], b.Syms[i])
		}
	}
	c := Generate(Tier(5000, 8))
	if bytes.Equal(encode(t, a, gmon.Version1), encode(t, c, gmon.Version1)) {
		t.Fatal("different seeds produced identical profile bytes")
	}
}

// TestRoundTrip checks that a generated profile survives both on-disk
// formats: decode(encode(p)) re-encodes to the same bytes, and the
// headline quantities match the original.
func TestRoundTrip(t *testing.T) {
	w := Generate(Tier(3000, 3))
	for _, version := range []int{gmon.Version1, gmon.Version2} {
		enc := encode(t, w, version)
		p, err := gmon.Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("v%d: decode: %v", version, err)
		}
		if got, want := p.Hist.TotalTicks(), w.Prof.Hist.TotalTicks(); got != want {
			t.Fatalf("v%d: ticks %d after round trip, want %d", version, got, want)
		}
		if got, want := len(p.Arcs), len(w.Prof.Arcs); got != want {
			t.Fatalf("v%d: %d arcs after round trip, want %d", version, got, want)
		}
		var buf bytes.Buffer
		if err := gmon.WriteVersion(&buf, p, version); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf.Bytes()) {
			t.Fatalf("v%d: re-encode differs from original encode", version)
		}
	}
}

// TestDesignedShape verifies the generator delivers the graph features
// it promises: the designed cycle groups survive as SCC cycles, the
// graph is connected enough to analyze, and recursion exists.
func TestDesignedShape(t *testing.T) {
	cfg := Tier(10000, 1)
	w := Generate(cfg)
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()},
		w.Prof, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Graph.Cycles), w.Cfg.CycleCount; got != want {
		t.Fatalf("SCC found %d cycles, generator designed %d", got, want)
	}
	for i, c := range res.Graph.Cycles {
		if len(c.Members) != w.Cfg.CycleSize {
			t.Fatalf("cycle %d has %d members, want %d", i+1, len(c.Members), w.Cfg.CycleSize)
		}
	}
	if res.Graph.Len() != cfg.Nodes {
		t.Fatalf("graph has %d nodes, want %d", res.Graph.Len(), cfg.Nodes)
	}
}
