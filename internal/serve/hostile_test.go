package serve

// Hostile-upload tests: the ingest surface faces arbitrary agents, so
// malformed, lying, truncated, and oversized bodies must come back as
// clean 4xx responses with bounded allocation — the same adversarial
// inputs gmon's FuzzRead seeds exercise, driven through the HTTP
// handlers.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/gmon"
)

// lyingCountBody is a well-formed v1 header declaring 2^27 histogram
// buckets and 2^27 arcs over an empty body: a 48-byte upload that would
// be a multi-gigabyte allocation if the decoder trusted it.
func lyingCountBody() []byte {
	b := append([]byte(nil), []byte("GMON")...)
	b = append(b, 1, 0, 0, 0)
	b = append(b, make([]byte, 32)...) // hz, low, high, step
	b = append(b, 0xff, 0xff, 0xff, 0x07, 0xff, 0xff, 0xff, 0x07)
	return b
}

// v2OverflowBody is a v2 header whose arc varint runs past 64 bits,
// over a one-bucket histogram at low (inside the executable's text, so
// the geometry check passes and the body is decoded).
func v2OverflowBody(low int64) []byte {
	b := append([]byte(nil), []byte("GMON")...)
	b = append(b, 2, 0, 0, 0)
	b = append(b, 60, 0, 0, 0, 0, 0, 0, 0) // hz
	b = binary.LittleEndian.AppendUint64(b, uint64(low))
	b = binary.LittleEndian.AppendUint64(b, uint64(low+1)) // high
	b = append(b, 1, 0, 0, 0, 0, 0, 0, 0)                  // step
	b = append(b, 1, 0, 0, 0, 1, 0, 0, 0)                  // nbkt=1 narc=1
	b = append(b, 0)                                       // count[0]=0
	for i := 0; i < 11; i++ {                              // 11-byte varint: > 64 bits
		b = append(b, 0x80)
	}
	return b
}

// TestHostileUploads throws the adversarial corpus at /v1/ingest and
// checks every body is rejected 4xx while the server stays healthy.
func TestHostileUploads(t *testing.T) {
	im, imageBytes := sortImage(t)
	srv, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	good := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	truncGzip := func() []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(good)
		zw.Close()
		return buf.Bytes()[:buf.Len()/2]
	}()
	badGzip := append([]byte{0x1f, 0x8b}, []byte("not a gzip stream at all")...)

	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"one byte", []byte("G")},
		{"bad magic", []byte("GMOO____________")},
		{"garbage", bytes.Repeat([]byte{0xa5}, 256)},
		{"truncated header", good[:47]},
		{"truncated mid-section", good[:len(good)/2]},
		{"lying declared counts", lyingCountBody()},
		{"v2 varint overflow", v2OverflowBody(im.TextBase)},
		{"gzip magic, garbage stream", badGzip},
		{"truncated gzip", truncGzip},
	}
	for _, tc := range cases {
		resp := ingest(t, ts, fp, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %q: status %s, want 400", tc.name, resp.Status)
		}
		resp.Body.Close()
	}

	// The same garbage against /v1/exe.
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, resp, http.StatusBadRequest)
	}

	// The server still ingests and serves after all of it.
	mustStatus(t, ingest(t, ts, fp, good), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	st := srv.Snapshot()
	if st.RejectedBadRequest < int64(2*len(cases)) {
		t.Errorf("rejected_bad_request = %d, want >= %d", st.RejectedBadRequest, 2*len(cases))
	}
	if st.ProfilesAccepted != 1 {
		t.Errorf("profiles_accepted = %d, want 1", st.ProfilesAccepted)
	}
}

// TestOversizedUploads checks the body cap turns into 413 for both
// profile data and executables.
func TestOversizedUploads(t *testing.T) {
	_, imageBytes := sortImage(t)

	// An executable over the cap is 413.
	_, tsTiny := newTestServer(t, Config{MaxBodyBytes: 256})
	respExe, err := http.Post(tsTiny.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(imageBytes))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, respExe, http.StatusRequestEntityTooLarge)

	// A profile over the cap is 413. The cap is below the image size,
	// so register the shard directly rather than over HTTP.
	im, _ := sortImage(t)
	profile := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	s, ts := newTestServer(t, Config{MaxBodyBytes: int64(len(profile) - 1)})
	const fp = "test-oversize-fp"
	if _, err := s.register(fp, newShard(fp, im, s.cfg, s.tr, s.metrics, s.rec)); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, ingest(t, ts, fp, profile), http.StatusRequestEntityTooLarge)
}

// TestLyingCountsBoundedAllocation replays the 48-byte header that
// declares 2^27 records many times and checks the heap stays flat: the
// declared-count contract means a lying header cannot buy gigabytes.
func TestLyingCountsBoundedAllocation(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	body := lyingCountBody()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		resp := ingest(t, ts, fp, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %d: status %s, want 400", i, resp.Status)
		}
		resp.Body.Close()
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// 50 × 2^27 records would be tens of GB if the header were trusted;
	// demand less than 64 MB of live-heap growth.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		t.Errorf("heap grew %d bytes across 50 lying-count uploads", grew)
	}
}

// mismatchedGeometryUpload is a gzipped version-2 upload declaring 2^24
// histogram buckets over [0, 2^24): 16 MiB of zero counts that deflate
// to a few KiB, so decoding it costs far more than receiving it.
func mismatchedGeometryUpload(t *testing.T) []byte {
	t.Helper()
	const buckets = 1 << 24
	hdr := append([]byte(nil), "GMON"...)
	hdr = binary.LittleEndian.AppendUint32(hdr, gmon.Version2)
	for _, v := range []int64{60, 0, buckets, 1} { // hz, low, high, step
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(v))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, buckets) // buckets
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)       // arcs
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(hdr)
	zeros := make([]byte, 1<<16) // one-byte uvarint 0 per bucket
	for i := 0; i < buckets/len(zeros); i++ {
		zw.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMismatchedGeometryRejectedFromHeader: once a shard's geometry is
// established, an upload whose header disagrees is a 409 decided from
// the header alone. The body here would inflate to 2^24 counts (64 MiB
// decoded); rejecting it must take neither the time nor the memory of
// decoding it.
func TestMismatchedGeometryRejectedFromHeader(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 1), gmon.Version2, false)), http.StatusAccepted)

	body := mismatchedGeometryUpload(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := mustStatus(t, ingest(t, ts, fp, body), http.StatusConflict)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !bytes.Contains(out, []byte("geometry")) {
		t.Errorf("409 body does not explain the mismatch: %s", out)
	}
	// On a 2-vCPU host the header-first check answers in about a
	// millisecond with under 100 KiB allocated; a full decode takes a
	// quarter second and over 100 MiB.
	if elapsed > 100*time.Millisecond {
		t.Errorf("409 took %v; the header alone decides it", elapsed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("rejecting the upload allocated %d bytes; decoding its counts would take %d", alloc, 4<<24)
	}
}

// TestFreshShardGeometryBoundedByImage: a shard adopts its first
// upload's geometry, so before any upload the header must fit the
// registered executable's text range. A lying first upload (the 2^24
// buckets of mismatchedGeometryUpload, far past the sort program's
// text) is refused from its header, within the same time and
// allocation bounds as a mismatch against an established geometry, and
// does not lock the executable's real uploads out.
func TestFreshShardGeometryBoundedByImage(t *testing.T) {
	im, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	if im.TextEnd() >= 1<<24 {
		t.Fatalf("sort text [%#x,%#x) covers the hostile range", im.TextBase, im.TextEnd())
	}

	body := mismatchedGeometryUpload(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := mustStatus(t, ingest(t, ts, fp, body), http.StatusConflict)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !bytes.Contains(out, []byte("geometry")) {
		t.Errorf("409 body does not explain the mismatch: %s", out)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("409 took %v; the header alone decides it", elapsed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("rejecting the upload allocated %d bytes; decoding its counts would take %d", alloc, 4<<24)
	}
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 1), gmon.Version2, true)), http.StatusAccepted)
}

// gzipBomb is a gzipped version-1 upload with the given histogram
// geometry and zero counts, declaring arcs zero-filled 24-byte arc
// records: arcs×24 decoded bytes from roughly a thousandth as many on
// the wire.
func gzipBomb(t *testing.T, geom gmon.Histogram, hz int64, arcs int) []byte {
	t.Helper()
	hdr := append([]byte(nil), "GMON"...)
	hdr = binary.LittleEndian.AppendUint32(hdr, gmon.Version1)
	for _, v := range []int64{hz, geom.Low, geom.High, geom.Step} {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(v))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(geom.NumBuckets()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(arcs))
	hdr = append(hdr, make([]byte, 4*geom.NumBuckets())...) // zero counts
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(hdr)
	zeros := make([]byte, 24<<10)
	for i := 0; i < arcs/1024; i++ {
		zw.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipBombRejected: an upload whose header matches the shard's
// geometry but whose gzip body inflates far past the upload cap is a
// 413 once the decoded stream crosses the cap, not a full decode. The
// bomb here is ~100 KiB on the wire and 96 MiB decoded, against a
// 1 MiB cap.
func TestGzipBombRejected(t *testing.T) {
	_, imageBytes := sortImage(t)
	const limit = 1 << 20
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	fp := registerExe(t, ts, imageBytes)
	real := sortProfile(t, 1)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, real, gmon.Version1, true)), http.StatusAccepted)

	body := gzipBomb(t, real.Hist, real.ClockHz(), 1<<22)
	if len(body) >= limit {
		t.Fatalf("bomb is %d bytes on the wire; the wire cap alone would stop it", len(body))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := mustStatus(t, ingest(t, ts, fp, body), http.StatusRequestEntityTooLarge)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !bytes.Contains(out, []byte("cap")) {
		t.Errorf("413 body does not name the cap: %s", out)
	}
	// On a 2-vCPU host the capped decode answers in about 4 ms with
	// about 3 MiB allocated; a full decode needs 96 MiB for the arc
	// records alone.
	if elapsed > 250*time.Millisecond {
		t.Errorf("413 took %v; decoding should stop at the %d-byte cap", elapsed, limit)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("rejecting the bomb allocated %d bytes", alloc)
	}
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 2), gmon.Version1, true)), http.StatusAccepted)
}
