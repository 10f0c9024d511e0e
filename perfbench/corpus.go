package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// An upload is one pre-encoded profile body and the profile the server
// decodes it to (pre-v3 encodings drop the stack table on the wire).
type upload struct {
	item    int
	body    []byte
	decoded *gmon.Profile
}

// A corpusItem is one executable and its uploads.
type corpusItem struct {
	name      string
	image     []byte
	im        *object.Image
	fp        string // set when registered
	synthetic bool
	stacks    bool
	uploads   []int // indexes into corpus.uploads
}

type corpus struct {
	items   []*corpusItem
	uploads []upload
}

// encodings are the six transport forms of an upload body: gmon
// format versions 1-3, each plain or gzipped.
var encodings = []struct {
	version int
	gzip    bool
}{{1, false}, {2, false}, {3, false}, {1, true}, {2, true}, {3, true}}

// buildCorpus makes the gprofd workloads' inputs from the seed: one
// synthetic executable per entry of synthNodes with synthVariants
// seeded profiles, and the workload suite's real programs (which carry
// stack tables) profiled at realVariants seeds. Every profile is
// encoded in all six encodings.
func buildCorpus(seed uint64, synthNodes []int, synthVariants, realVariants int) (*corpus, error) {
	c := &corpus{}
	for _, n := range synthNodes {
		item := &corpusItem{name: fmt.Sprintf("synth%d", n), synthetic: true}
		for v := 0; v < synthVariants; v++ {
			w := synth.Generate(synth.Tier(n, seed*64+uint64(v)+1))
			if v == 0 {
				item.im = w.Image()
			}
			if err := c.add(item, w.Prof); err != nil {
				return nil, err
			}
		}
		c.items = append(c.items, item)
	}
	for _, name := range workloads.Names() {
		im, err := workloads.Build(name, true)
		if err != nil {
			return nil, err
		}
		item := &corpusItem{name: name, im: im, stacks: true}
		for v := 0; v < realVariants; v++ {
			p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed*64 + uint64(v) + 1, Stacks: true})
			if err != nil {
				return nil, fmt.Errorf("profiling %s: %w", name, err)
			}
			if err := c.add(item, p); err != nil {
				return nil, err
			}
		}
		c.items = append(c.items, item)
	}
	for i, item := range c.items {
		var buf bytes.Buffer
		if err := object.WriteImage(&buf, item.im); err != nil {
			return nil, err
		}
		item.image = buf.Bytes()
		for _, u := range item.uploads {
			c.uploads[u].item = i
		}
	}
	return c, nil
}

func (c *corpus) add(item *corpusItem, p *gmon.Profile) error {
	stripped := p
	if len(p.Stacks) > 0 {
		stripped = p.Clone()
		stripped.Stacks = nil
	}
	for _, e := range encodings {
		var buf bytes.Buffer
		var err error
		if e.gzip {
			zw := gzip.NewWriter(&buf)
			if err = gmon.WriteVersion(zw, p, e.version); err == nil {
				err = zw.Close()
			}
		} else {
			err = gmon.WriteVersion(&buf, p, e.version)
		}
		if err != nil {
			return err
		}
		u := upload{body: buf.Bytes(), decoded: stripped}
		if e.version == gmon.Version3 {
			u.decoded = p
		}
		item.uploads = append(item.uploads, len(c.uploads))
		c.uploads = append(c.uploads, u)
	}
	return nil
}

// register uploads every executable to the server.
func (c *corpus) register(d *gprofd) error {
	for _, item := range c.items {
		fp, err := d.register(item.image)
		if err != nil {
			return fmt.Errorf("registering %s: %w", item.name, err)
		}
		item.fp = fp
	}
	return nil
}

// schedule draws n uploads from the seed, stratified so every stretch
// of the schedule has the same mix: the executables come in rounds (a
// seeded permutation of all of them per round, or of only the
// synthetic ones), and each executable cycles through a seeded
// permutation of its uploads.
func (c *corpus) schedule(seed uint64, stream uint64, n int, syntheticOnly bool) []int {
	var items []int
	for i, it := range c.items {
		if it.synthetic || !syntheticOnly {
			items = append(items, i)
		}
	}
	r := rand.New(rand.NewPCG(seed, stream))
	perms := make([][]int, len(c.items))
	next := make([]int, len(c.items))
	var round []int
	out := make([]int, n)
	for i := range out {
		if len(round) == 0 {
			for _, k := range r.Perm(len(items)) {
				round = append(round, items[k])
			}
		}
		item := round[0]
		round = round[1:]
		if next[item] == 0 {
			perms[item] = r.Perm(len(c.items[item].uploads))
		}
		out[i] = c.items[item].uploads[perms[item][next[item]]]
		next[item] = (next[item] + 1) % len(perms[item])
	}
	return out
}

// ledger records which uploads the server accepted, per executable, so
// the server's merge can be checked against an offline one.
type ledger struct {
	mu       sync.Mutex
	accepted [][]int // per item: upload indexes
}

func newLedger(c *corpus) *ledger { return &ledger{accepted: make([][]int, len(c.items))} }

func (l *ledger) add(item, upload int) {
	l.mu.Lock()
	l.accepted[item] = append(l.accepted[item], upload)
	l.mu.Unlock()
}

// offlineMerge is gmon.MergeAll of exactly the uploads accepted for an
// item, or nil when none were.
func (l *ledger) offlineMerge(c *corpus, item int) (*gmon.Profile, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ps []*gmon.Profile
	for _, u := range l.accepted[item] {
		ps = append(ps, c.uploads[u].decoded)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	return gmon.MergeAll(context.Background(), ps, 1)
}
