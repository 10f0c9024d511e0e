package gmon

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"

	"repro/internal/binio"
)

// gzipMagic is the two-byte RFC 1952 member header every gzip stream
// starts with.
var gzipMagic = [2]byte{0x1f, 0x8b}

// Sniff reports whether head looks like the start of profile data this
// package can decode: a raw GMON file (either version) or a gzip
// stream wrapping one. head needs at least two bytes to identify gzip
// and four to identify a raw file; shorter prefixes report false.
func Sniff(head []byte) bool {
	if len(head) >= 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		return true
	}
	return len(head) >= 4 && bytes.Equal(head[:4], magic[:])
}

// OpenReader is the one ingestion entry point for profile data: it
// sniffs the stream's transport encoding (gzip or identity) from the
// first two bytes, unwraps it if needed, and hands the payload to
// NewReader, whose header parse negotiates the format version (v1 or
// v2). Every consumer of profile data — gprof -sum, profdiff,
// core.LoadProfiles, and the gprofd ingest handler — decodes through
// this sniff, so compressed uploads and both format versions work
// everywhere without parallel decode paths.
//
// Closing the returned Reader closes the gzip decompressor when one
// was interposed; the caller still owns r itself.
func OpenReader(r io.Reader) (*Reader, error) {
	return OpenReaderLimit(r, 0)
}

// ErrTooLarge reports, wrapped, a stream whose payload decodes to more
// bytes than the limit given to OpenReaderLimit.
var ErrTooLarge = errors.New("gmon: decoded profile data exceeds the size limit")

// OpenReaderLimit is OpenReader with the payload — the decompressed
// bytes of a gzip stream, the stream itself otherwise — capped at
// limit bytes (no cap when limit <= 0). Reading past the cap fails
// with ErrTooLarge, so a small compressed upload cannot make the
// decoder inflate and decode an unbounded body.
func OpenReaderLimit(r io.Reader, limit int64) (*Reader, error) {
	var head [2]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil {
		// A stream too short for the sniff is too short for the magic.
		return nil, fmt.Errorf("gmon: reading magic: %w", eofIsTruncation(err))
	}
	payload := io.Reader(io.MultiReader(bytes.NewReader(head[:n]), r))
	var unzip *gzip.Reader
	if head == gzipMagic {
		unzip, err = gzip.NewReader(payload)
		if err != nil {
			return nil, fmt.Errorf("gmon: opening gzip stream: %w", err)
		}
		payload = unzip
	}
	if limit > 0 {
		payload = &capReader{r: payload, n: limit}
	}
	d, err := NewReader(payload)
	if err != nil {
		if unzip != nil {
			unzip.Close()
		}
		return nil, err
	}
	if unzip != nil {
		d.src = unzip
	}
	return d, nil
}

// capReader passes at most n more bytes through and fails with
// ErrTooLarge once the stream holds more (http.MaxBytesReader's rule,
// applied to the decoded payload).
type capReader struct {
	r io.Reader
	n int64
}

func (c *capReader) Read(p []byte) (int, error) {
	if int64(len(p)) > c.n+1 {
		p = p[:c.n+1]
	}
	n, err := c.r.Read(p)
	if int64(n) <= c.n {
		c.n -= int64(n)
		return n, err
	}
	n = int(c.n)
	c.n = 0
	return n, ErrTooLarge
}

// OpenBytes is OpenReader for profile data already resident in memory
// (a binio.Map mapping, an upload body): raw files decode through a
// fixed zero-copy reader whose record views alias data itself — no
// block buffer, no staging memcpy — while gzip payloads unwrap through
// the streaming decompressor. The caller keeps data alive until the
// returned Reader is closed.
func OpenBytes(data []byte) (*Reader, error) {
	if len(data) >= 2 && data[0] == gzipMagic[0] && data[1] == gzipMagic[1] {
		unzip, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("gmon: opening gzip stream: %w", err)
		}
		d, err := NewReader(unzip)
		if err != nil {
			unzip.Close()
			return nil, err
		}
		d.src = unzip
		return d, nil
	}
	return newReaderBR(binio.NewBytesReader(data))
}

// Open decodes a whole profile through OpenReader: gzip or identity
// transport, either format version.
func Open(r io.Reader) (*Profile, error) {
	p := &Profile{}
	if err := OpenInto(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenInto decodes a profile through OpenReader into p, reusing p's
// histogram and arc storage when its capacity suffices.
func OpenInto(r io.Reader, p *Profile) error {
	d, err := OpenReader(r)
	if err != nil {
		return err
	}
	defer d.Close()
	_, err = decodeInto(d, p)
	return err
}
