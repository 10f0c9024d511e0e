package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from outside it. The
// spans of one operation share op; parent indexes the span that caused
// this one (-1 for an operation's root).
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// recorder holds the traced run's spans in memory until the run ends.
// A nil *recorder records nothing, so untraced runs call the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op allocates the id that the spans of one operation share.
func (r *recorder) op() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// pair orders one traced and one untraced repetition of an operation,
// alternating which goes first so neither always finds the caches the
// other warmed.
func (r *recorder) pair(k int) []*recorder {
	if k%2 == 0 {
		return []*recorder{r, nil}
	}
	return []*recorder{nil, r}
}

// call runs fn inside a span named name, child of parent.
func (r *recorder) call(op, parent int, name string, fn func() error) error {
	i := r.begin(op, parent, name)
	err := fn()
	r.end(i)
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children may overlap; their union is subtracted).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(spans, kids[i])
	}
	return self
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(idx))
	for k, i := range idx {
		iv[k] = [2]time.Duration{spans[i].start, spans[i].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return total + cur[1] - cur[0]
}

// layerOf maps a span name to its layer: the repo module before the
// first dot ("gmon.read" is in gmon).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer string  `json:"layer"`
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"` // of the summed root (operation) time
}

// summary is the traced run's digest: the self-time table and the
// share of operation wall time that layer spans account for. Only
// operations whose root span is named root count.
type summary struct {
	rows     []layerRow
	rootWall time.Duration
	coverage float64
}

func (r *recorder) summarize(root string) summary {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	inRoot := make([]bool, len(spans))
	var out summary
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		if s.parent < 0 {
			inRoot[i] = s.name == root
			if inRoot[i] {
				out.rootWall += s.end - s.start
			}
			continue
		}
		inRoot[i] = inRoot[s.parent]
		if !inRoot[i] {
			continue
		}
		l := layerOf(s.name)
		row := byLayer[l]
		if row == nil {
			row = &layerRow{Layer: l}
			byLayer[l] = row
		}
		row.Calls++
		row.SelfS += self[i].Seconds()
	}
	var layered float64
	for _, row := range byLayer {
		if out.rootWall > 0 {
			row.Share = row.SelfS / out.rootWall.Seconds()
		}
		layered += row.SelfS
		out.rows = append(out.rows, *row)
	}
	sort.Slice(out.rows, func(a, b int) bool { return out.rows[a].SelfS > out.rows[b].SelfS })
	if out.rootWall > 0 {
		out.coverage = layered / out.rootWall.Seconds()
	}
	return out
}

// spanTotal sums the durations of the finished spans named name.
func (r *recorder) spanTotal(name string) (total time.Duration, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			total += s.end - s.start
			n++
		}
	}
	return total, n
}

// spanSeconds returns the durations of the finished spans named name.
func (r *recorder) spanSeconds(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON: one track
// per operation, complete ("X") events with the parent index in args.
func (r *recorder) writeChrome(w io.Writer, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   *float64       `json:"ts,omitempty"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": process}}}
	named := map[int]bool{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		if !named[s.op] {
			named[s.op] = true
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.op,
				Args: map[string]any{"name": fmt.Sprintf("op %d", s.op)}})
		}
		ts := float64(s.start) / 1e3
		dur := float64(s.end-s.start) / 1e3
		events = append(events, event{Name: s.name, Ph: "X", Ts: &ts, Dur: &dur, Pid: 1, Tid: s.op,
			Args: map[string]any{"span": i, "parent": s.parent, "op": s.op}})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ms", events})
}
