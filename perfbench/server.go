package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// gprofd is a running gprofd process and the one HTTP client the
// benchmark drives it with, capped at conns connections.
type gprofd struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    bytes.Buffer
	waited chan error
}

// startGprofd launches the server on a free loopback port with one
// aggregation window longer than any run, so every upload of a run
// lands in the same window, and waits until it is ready.
func startGprofd(bin string, conns int) (*gprofd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &gprofd{base: "http://" + addr, waited: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(bin, "gprofd"), "-addr", addr, "-window", "1h", "-retain", "2")
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.waited <- d.cmd.Wait() }()
	d.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, _, err := d.get("/readyz")
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		select {
		case err := <-d.waited:
			d.waited <- err
			return nil, fmt.Errorf("gprofd exited before ready: %v\n%s", err, d.log.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gprofd not ready after 15s: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop interrupts the server (it drains and exits), kills it if it
// lingers, and waits for the process to end.
func (d *gprofd) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
	}
}

func (d *gprofd) do(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *gprofd) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return d.do(req)
}

func (d *gprofd) post(path, fp string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if fp != "" {
		req.Header.Set(serve.FingerprintHeader, fp)
	}
	return d.do(req)
}

// register uploads an executable image and returns its fingerprint.
func (d *gprofd) register(image []byte) (string, error) {
	code, body, err := d.post("/v1/exe", "", image)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK && code != http.StatusCreated {
		return "", fmt.Errorf("/v1/exe: %d %s", code, body)
	}
	var r struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Fingerprint == "" {
		return "", fmt.Errorf("/v1/exe: no fingerprint in %q", body)
	}
	return r.Fingerprint, nil
}

// peakRSSMB is the server process's resident-set high-water mark.
func (d *gprofd) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", d.cmd.Process.Pid)
}

// observe is one reading of the server's own accounting: the parsed
// /metrics exposition, its raw text, and /v1/stats.
type observe struct {
	expo     *obs.Exposition
	raw      []byte
	stats    serve.Stats
	statsRaw []byte
}

func (d *gprofd) observe() (*observe, error) {
	code, raw, err := d.get("/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d %v", code, err)
	}
	expo, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	o := &observe{expo: expo, raw: raw}
	code, body, err := d.get("/v1/stats")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: %d %v", code, err)
	}
	o.statsRaw = body
	return o, json.Unmarshal(body, &o.stats)
}

// histCounts sums, per bucket upper bound, the (non-cumulative) counts
// of every series of a histogram family whose labels include match.
func histCounts(e *obs.Exposition, family string, match map[string]string) map[float64]float64 {
	out := map[float64]float64{}
	f := e.Family(family)
	if f == nil {
		return out
	}
	type series struct {
		les  []float64
		cums []float64
	}
	bySeries := map[string]*series{}
	for _, s := range f.Samples {
		if s.Name != family+"_bucket" || !labelsMatch(s.Labels, match) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		key := seriesKey(s.Labels)
		ser := bySeries[key]
		if ser == nil {
			ser = &series{}
			bySeries[key] = ser
		}
		ser.les = append(ser.les, le)
		ser.cums = append(ser.cums, s.Value)
	}
	for _, ser := range bySeries {
		prev := 0.0
		for i, le := range ser.les {
			out[le] += ser.cums[i] - prev
			prev = ser.cums[i]
		}
	}
	return out
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func seriesKey(labels map[string]string) string {
	var keys []string
	for k, v := range labels {
		if k != "le" {
			keys = append(keys, k+"="+v)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// deltaQuantile is the q-quantile of the observations a histogram
// family gained between two readings, reported as the upper bound of
// the bucket that holds it (a +Inf bucket reports the largest finite
// bound). It returns 0 when nothing was observed.
func deltaQuantile(before, after *observe, family string, match map[string]string, q float64) (value float64, n float64) {
	b := histCounts(before.expo, family, match)
	a := histCounts(after.expo, family, match)
	var les []float64
	for le := range a {
		les = append(les, le)
	}
	sort.Float64s(les)
	var total float64
	delta := make([]float64, len(les))
	for i, le := range les {
		delta[i] = a[le] - b[le]
		total += delta[i]
	}
	if total <= 0 {
		return 0, 0
	}
	var cum, lastFinite float64
	for i, le := range les {
		cum += delta[i]
		if le < 1e300 {
			lastFinite = le
		}
		if cum >= q*total {
			if le > 1e300 {
				return lastFinite, total
			}
			return le, total
		}
	}
	return lastFinite, total
}

// counterDelta is the growth of every series of a counter family whose
// labels include match.
func counterDelta(before, after *observe, family string, match map[string]string) float64 {
	sum := func(e *obs.Exposition) float64 {
		var v float64
		if f := e.Family(family); f != nil {
			for _, s := range f.Samples {
				if labelsMatch(s.Labels, match) {
					v += s.Value
				}
			}
		}
		return v
	}
	return sum(after.expo) - sum(before.expo)
}

// openLoop sends n operations on a fixed schedule, rate per second from
// t0, through conns workers. An operation waits for a free worker; its
// latency is timed from when it was due, so a stall counts against
// every operation queued behind it.
func openLoop(t0 time.Time, rate float64, n, conns int, do func(i int) bool) []opSample {
	samples := make([]opSample, n)
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.start = time.Since(t0)
				s.ok = do(i)
				s.end = time.Since(t0)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].due = due
		samples[i].sent = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop keeps conns workers busy for dur: each sends its next
// operation as soon as the previous one completes.
func closedLoop(dur time.Duration, conns int, do func(i int)) {
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}
