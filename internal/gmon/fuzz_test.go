package gmon

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/binio"
)

// FuzzRead hammers the profile decoder with arbitrary bytes: corrupt
// headers, truncated sections, and overflowing varints must all surface
// as errors — never a panic, and never an allocation sized by a lying
// header (the chunked growth in ReadInto is what this exercises). Any
// input that does decode must be a valid profile that survives a
// re-encode round trip in both format versions.
func FuzzRead(f *testing.F) {
	seed := func(p *Profile, version int) {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		b := buf.Bytes()
		f.Add(b[:len(b)/2]) // truncated mid-section
		f.Add(b[:47])       // truncated header
	}
	seed(sample(), Version1)
	seed(sample(), Version2)
	seed(sampleV3(), Version3)
	empty := &Profile{Hist: Histogram{Low: 0, High: 0, Step: 1, Counts: []uint32{}}, Arcs: []Arc{}}
	seed(empty, Version1)
	f.Add([]byte("GMOO____________"))
	// Hostile version-3 stack sections: lying record count, zero and
	// overflowing depth, zero count, negative frame pc, out-of-order
	// and duplicate records.
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = binio.AppendUvarint(dst, v)
		}
		return dst
	}
	f.Add(v3Bytes(1<<27, nil))
	f.Add(v3Bytes(1, uv(nil, 7, 0, 4)))
	f.Add(v3Bytes(1, uv(nil, 7, MaxStackDepth+1)))
	f.Add(v3Bytes(1, uv(nil, 7, 1, 0)))
	f.Add(v3Bytes(1, uv(uv(nil, 7, 2), zigzag(-8), 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 2, 8, 1, 0, 2, 9, 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 1, 1, 0, 1, 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 3, 2, 4, 6, 0, 3, 2, 6, 6)))
	// Header declaring 2^27 records over no body.
	huge := append([]byte(nil), []byte("GMON")...)
	huge = append(huge, 1, 0, 0, 0)
	huge = append(huge, make([]byte, 32)...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x07, 0xff, 0xff, 0xff, 0x07)
	f.Add(huge)
	// Version 2 with a varint that runs past 64 bits.
	v2overflow := append([]byte(nil), []byte("GMON")...)
	v2overflow = append(v2overflow, 2, 0, 0, 0)
	v2overflow = append(v2overflow, 60, 0, 0, 0, 0, 0, 0, 0) // hz
	v2overflow = append(v2overflow, 0, 0, 0, 0, 0, 0, 0, 0)  // low
	v2overflow = append(v2overflow, 1, 0, 0, 0, 0, 0, 0, 0)  // high
	v2overflow = append(v2overflow, 1, 0, 0, 0, 0, 0, 0, 0)  // step
	v2overflow = append(v2overflow, 1, 0, 0, 0, 1, 0, 0, 0)  // nbkt=1 narc=1
	v2overflow = append(v2overflow, 0)                       // count[0]=0
	v2overflow = append(v2overflow, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	f.Add(v2overflow)
	// Gzip bombs: a few tens of KiB that inflate to 16 MiB of zero v2
	// counts, or to 24 MiB of zero v1 arc records.
	f.Add(gzipBomb(f, Version2, 1<<24, 0))
	f.Add(gzipBomb(f, Version1, 0, 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode under a cap, as gprofd does. An identity stream decodes
		// to at most len(data) bytes, so only a gzip stream can hit it.
		p, err := readCapped(data, int64(len(data))+fuzzDecodeCap)
		if errors.Is(err, ErrTooLarge) && !bytes.HasPrefix(data, gzipMagic[:]) {
			t.Fatalf("identity stream of %d bytes hit the decode cap: %v", len(data), err)
		}
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid profile: %v", err)
		}
		// Round trip through every encoder. Pre-v3 encodings drop the
		// stack table, so those legs compare against a stripped clone.
		flat := p
		if p.Stacks != nil {
			cp := *p // shallow: keep empty-vs-nil slice identity intact
			cp.Stacks = nil
			flat = &cp
		}
		var v1 bytes.Buffer
		if err := Write(&v1, p); err != nil {
			t.Fatalf("re-encode v1: %v", err)
		}
		q, err := Read(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v1: %v", err)
		}
		if !reflect.DeepEqual(flat, q) {
			t.Fatalf("v1 round trip diverged:\n got %+v\nwant %+v", q, flat)
		}
		// The reader enforces canonical stack order, so any decoded
		// stack table re-encodes at v3 and round-trips exactly.
		var v3 bytes.Buffer
		if err := WriteVersion(&v3, p, Version3); err != nil {
			t.Fatalf("re-encode v3: %v", err)
		}
		s, err := Read(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v3: %v", err)
		}
		if !reflect.DeepEqual(s.Stacks, p.Stacks) {
			t.Fatalf("v3 stack round trip diverged:\n got %+v\nwant %+v", s.Stacks, p.Stacks)
		}
		var v2 bytes.Buffer
		if err := WriteV2(&v2, p); err != nil {
			t.Fatalf("re-encode v2: %v", err)
		}
		r, err := Read(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v2: %v", err)
		}
		// Arbitrary inputs may hold duplicate (FromPC, SelfPC) keys,
		// which SortArcs (unstable) may order either way — compare
		// under a total order on the whole triple.
		canon := flat.Clone()
		canon.SortArcs()
		if canon.Arcs == nil {
			canon.Arcs = []Arc{}
		}
		if canon.Hist.Counts == nil {
			canon.Hist.Counts = []uint32{}
		}
		sortByTriple := func(arcs []Arc) {
			sort.Slice(arcs, func(i, j int) bool {
				if arcs[i].FromPC != arcs[j].FromPC {
					return arcs[i].FromPC < arcs[j].FromPC
				}
				if arcs[i].SelfPC != arcs[j].SelfPC {
					return arcs[i].SelfPC < arcs[j].SelfPC
				}
				return arcs[i].Count < arcs[j].Count
			})
		}
		sortByTriple(canon.Arcs)
		sortByTriple(r.Arcs)
		if !reflect.DeepEqual(r, canon) {
			t.Fatalf("v2 round trip diverged:\n got %+v\nwant %+v", r, canon)
		}
	})
}

// fuzzDecodeCap bounds how far FuzzRead decodes past an input's own
// length, so a gzip bomb costs a megabyte, not its inflated size.
const fuzzDecodeCap = 1 << 20

func readCapped(data []byte, limit int64) (*Profile, error) {
	d, err := OpenReaderLimit(bytes.NewReader(data), limit)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	p := &Profile{}
	if err := d.ReadProfile(p); err != nil {
		return nil, err
	}
	return p, nil
}

// gzipBomb is a gzipped profile of the given version whose histogram
// has buckets zero counts over [0, buckets) and whose arcs records
// are zero-filled 24-byte records (version 1 only).
func gzipBomb(f *testing.F, version, buckets, arcs int) []byte {
	hdr := append([]byte(nil), "GMON"...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(version))
	for _, v := range []int64{60, 0, int64(buckets), 1} { // hz, low, high, step
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(v))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(buckets))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(arcs))
	countBytes := buckets // one-byte uvarint zeros
	if version == Version1 {
		countBytes = 4 * buckets
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(hdr)
	zeros := make([]byte, 1<<16)
	for n := countBytes + 24*arcs; n > 0; n -= len(zeros) {
		zw.Write(zeros[:min(n, len(zeros))])
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
