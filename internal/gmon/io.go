package gmon

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/binio"
)

// Binary layout, version 1 (all fields little-endian, fixed width):
//
//	magic   [4]byte  "GMON"
//	version uint32   1
//	hz      int64
//	low     int64
//	high    int64
//	step    int64
//	nbkt    uint32   number of histogram buckets
//	narc    uint32   number of arcs
//	counts  [nbkt]uint32
//	arcs    [narc]{frompc int64, selfpc int64, count int64}
//
// Version 2 keeps the magic and the fixed 44-byte header but compresses
// the two record sections (the header's version field negotiates which
// decoder runs):
//
//	counts  [nbkt]uvarint
//	arcs    [narc] sorted by (frompc, selfpc):
//	        dfrom uvarint  = (frompc+1) - previous (frompc+1)   [starts at 0]
//	        self  uvarint  = selfpc - previous selfpc if dfrom == 0,
//	                         selfpc otherwise
//	        count uvarint
//
// The frompc+1 bias makes the spontaneous-caller sentinel (-1) encode
// as zero, so every varint is non-negative. Arcs decode to the same
// (FromPC, SelfPC, Count) triples as version 1; only the bytes differ.
//
// Version 3 is version 2 plus whole-stack samples. The fixed header
// grows one field (present only at version 3):
//
//	nstack uint32   number of interned stack records
//
// and a stack section follows the arcs, records sorted by PC sequence
// (lexicographic, shorter prefix first):
//
//	stacks  [nstack]:
//	        dpc0  uvarint  = PCs[0] - previous record's PCs[0]  [starts at 0]
//	        depth uvarint  = len(PCs), 1..MaxStackDepth
//	        dpc   varint   (depth-1 times) zigzag delta from the
//	                       previous PC in this record
//	        count uvarint
//
// The leaf PC delta-encodes across records (sorted, so non-negative
// uvarint); the outward frames delta-encode within the record with
// zigzag varints because a walk moves through unsorted addresses.
// docs/FORMATS.md is the narrative version.
var magic = [4]byte{'G', 'M', 'O', 'N'}

// Format versions. Write emits Version1, the original fixed-width
// layout; WriteV2 emits the compressed Version2 layout; WriteV3 adds
// the stack-samples section. Read accepts all three, negotiated by the
// header's version field.
const (
	Version1 = 1
	Version2 = 2
	Version3 = 3

	// Version is the default format Write emits.
	Version = Version1
)

// maxRecords bounds bucket/arc counts on read so a corrupt header cannot
// drive a huge allocation.
const maxRecords = 1 << 28

// chunkRecords is the record-batch granularity for decoding: result
// slices grow (binio.Grow) at most this many records ahead of the data
// actually seen, so a header lying about its counts cannot
// over-allocate.
const chunkRecords = 8192

// Header is everything in a profile data file except the record
// sections: the format version, clock rate, histogram geometry, and the
// record counts. Reader exposes it after parsing; Writer is configured
// by it.
type Header struct {
	Version    int   // Version1..Version3; zero means Version1
	Hz         int64 // clock-tick rate; zero means DefaultHz
	Low        int64 // histogram bounds and step, as in Histogram
	High       int64
	Step       int64
	NumBuckets int
	NumArcs    int
	// NumStacks is the stack-record count; the field exists on disk
	// only at Version3 and must be zero below it.
	NumStacks int
}

// FileStats is the on-disk layout of one decoded profile data file:
// format version and per-section byte sizes (cmd/gmondump prints it, so
// version-1-vs-2 size wins are inspectable).
type FileStats struct {
	Version     int
	HeaderBytes int64 // magic + fixed header
	HistBytes   int64 // histogram counts section
	ArcBytes    int64 // arc records section
	StackBytes  int64 // stack records section (version 3 only)
	TotalBytes  int64
}

// Writer streams a profile data file: header at construction, then the
// histogram counts, then the arc records, without materializing a
// Profile. The declared record counts are a contract — Close fails if
// fewer were written, WriteArc fails past the count.
type Writer struct {
	bw         *binio.Writer
	version    int
	nbkt       int // counts still owed
	narc       int // arcs still owed
	nstack     int // stacks still owed (version 3)
	countsDone bool
	prevFrom1  int64 // version 2 delta state: previous FromPC+1
	prevSelf   int64
	prevPC0    int64   // version 3 delta state: previous record's leaf PC
	prevStack  []int64 // previous record's full sequence, for order checks
}

// NewWriter validates h, writes the file header to w, and returns a
// Writer expecting h.NumBuckets counts and h.NumArcs arcs.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	version := h.Version
	if version == 0 {
		version = Version1
	}
	if version < Version1 || version > Version3 {
		return nil, fmt.Errorf("gmon: unsupported write version %d", version)
	}
	hz := h.Hz
	if hz == 0 {
		hz = DefaultHz
	}
	if hz < 0 {
		return nil, fmt.Errorf("gmon: negative clock rate %d", hz)
	}
	geom := Histogram{Low: h.Low, High: h.High, Step: h.Step}
	if h.Step <= 0 {
		return nil, fmt.Errorf("gmon: histogram step %d (want > 0)", h.Step)
	}
	if h.High < h.Low {
		return nil, fmt.Errorf("gmon: histogram bounds [%#x,%#x) inverted", h.Low, h.High)
	}
	if want := geom.NumBuckets(); h.NumBuckets != want {
		return nil, fmt.Errorf("gmon: header has %d buckets, bounds imply %d", h.NumBuckets, want)
	}
	if h.NumArcs < 0 || h.NumArcs > maxRecords || h.NumBuckets > maxRecords {
		return nil, fmt.Errorf("gmon: implausible record counts (%d buckets, %d arcs)", h.NumBuckets, h.NumArcs)
	}
	if h.NumStacks < 0 || h.NumStacks > maxRecords {
		return nil, fmt.Errorf("gmon: implausible stack count %d", h.NumStacks)
	}
	if version < Version3 && h.NumStacks != 0 {
		return nil, fmt.Errorf("gmon: version %d has no stack section (%d stacks declared)", version, h.NumStacks)
	}
	bw := binio.NewWriter(w)
	bw.Bytes(magic[:])
	bw.U32(uint32(version))
	bw.I64(hz)
	bw.I64(h.Low)
	bw.I64(h.High)
	bw.I64(h.Step)
	bw.U32(uint32(h.NumBuckets))
	bw.U32(uint32(h.NumArcs))
	if version == Version3 {
		bw.U32(uint32(h.NumStacks))
	}
	if err := bw.Err(); err != nil {
		bw.Close()
		return nil, err
	}
	return &Writer{bw: bw, version: version, nbkt: h.NumBuckets, narc: h.NumArcs, nstack: h.NumStacks}, nil
}

// WriteCounts writes the histogram counts section; len(counts) must
// equal the header's bucket count.
func (e *Writer) WriteCounts(counts []uint32) error {
	if e.countsDone {
		return fmt.Errorf("gmon: histogram counts already written")
	}
	if len(counts) != e.nbkt {
		return fmt.Errorf("gmon: %d counts for a %d-bucket header", len(counts), e.nbkt)
	}
	if e.version == Version1 {
		e.bw.U32s(counts)
	} else {
		for _, c := range counts {
			e.bw.Uvarint(uint64(c))
		}
	}
	e.countsDone = true
	return e.bw.Err()
}

// WriteArc appends one arc record. Version 2 requires arcs in
// (FromPC, SelfPC) order (WriteV2 sorts for callers that hold whole
// profiles).
func (e *Writer) WriteArc(a Arc) error {
	if !e.countsDone {
		return fmt.Errorf("gmon: arc written before histogram counts")
	}
	if e.narc == 0 {
		return fmt.Errorf("gmon: more arcs than the header declared")
	}
	if a.Count < 0 || a.SelfPC < 0 || (a.FromPC < 0 && a.FromPC != SpontaneousPC) {
		return fmt.Errorf("gmon: invalid arc %+v", a)
	}
	if e.version == Version1 {
		e.bw.I64(a.FromPC)
		e.bw.I64(a.SelfPC)
		e.bw.I64(a.Count)
	} else {
		from1 := a.FromPC + 1
		if from1 < e.prevFrom1 || (from1 == e.prevFrom1 && a.SelfPC < e.prevSelf) {
			return fmt.Errorf("gmon: version-2 arcs must be written in (FromPC, SelfPC) order")
		}
		d := uint64(from1 - e.prevFrom1)
		e.bw.Uvarint(d)
		if d == 0 {
			e.bw.Uvarint(uint64(a.SelfPC - e.prevSelf))
		} else {
			e.bw.Uvarint(uint64(a.SelfPC))
		}
		e.bw.Uvarint(uint64(a.Count))
		e.prevFrom1, e.prevSelf = from1, a.SelfPC
	}
	e.narc--
	return e.bw.Err()
}

// WriteArcs appends a batch of arc records.
func (e *Writer) WriteArcs(arcs []Arc) error {
	for _, a := range arcs {
		if err := e.WriteArc(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteStack appends one stack record. Stacks follow the arc section
// and must arrive in canonical order: strictly increasing PC sequence
// (an interned table has no duplicate sequences), which is what keeps
// the cross-record leaf-PC delta a non-negative uvarint.
func (e *Writer) WriteStack(s StackSample) error {
	if e.version != Version3 {
		return fmt.Errorf("gmon: stack records require version %d", Version3)
	}
	if !e.countsDone || e.narc != 0 {
		return fmt.Errorf("gmon: stack written before histogram counts and arcs")
	}
	if e.nstack == 0 {
		return fmt.Errorf("gmon: more stacks than the header declared")
	}
	if len(s.PCs) == 0 || len(s.PCs) > MaxStackDepth || s.Count <= 0 {
		return fmt.Errorf("gmon: invalid stack record (%d frames, count %d)", len(s.PCs), s.Count)
	}
	for _, pc := range s.PCs {
		if pc < 0 {
			return fmt.Errorf("gmon: stack record has invalid pc %#x", pc)
		}
	}
	if e.prevStack != nil && compareStacks(s.PCs, e.prevStack) <= 0 {
		return fmt.Errorf("gmon: version-3 stacks must be written in increasing PC-sequence order")
	}
	e.bw.Uvarint(uint64(s.PCs[0] - e.prevPC0))
	e.bw.Uvarint(uint64(len(s.PCs)))
	for i := 1; i < len(s.PCs); i++ {
		e.bw.Varint(s.PCs[i] - s.PCs[i-1])
	}
	e.bw.Uvarint(uint64(s.Count))
	e.prevPC0 = s.PCs[0]
	e.prevStack = append(e.prevStack[:0], s.PCs...)
	e.nstack--
	return e.bw.Err()
}

// WriteStacks appends a batch of stack records.
func (e *Writer) WriteStacks(stacks []StackSample) error {
	for _, s := range stacks {
		if err := e.WriteStack(s); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the file and releases the Writer's buffer. It fails if
// fewer records were written than the header declared.
func (e *Writer) Close() error {
	if e.bw == nil {
		return nil
	}
	var short error
	if !e.countsDone {
		short = fmt.Errorf("gmon: histogram counts never written")
	} else if e.narc != 0 {
		short = fmt.Errorf("gmon: %d declared arcs never written", e.narc)
	} else if e.nstack != 0 {
		short = fmt.Errorf("gmon: %d declared stacks never written", e.nstack)
	}
	err := e.bw.Close()
	e.bw = nil
	if short != nil {
		return short
	}
	return err
}

// Write encodes p to w in the default (version 1) format.
func Write(w io.Writer, p *Profile) error {
	return WriteVersion(w, p, Version1)
}

// WriteV2 encodes p to w in the compressed version-2 format: varint
// histogram counts, and arcs stored sorted by (FromPC, SelfPC) with
// delta-encoded PCs. If p's arcs are not already sorted a sorted copy
// is encoded; p is never modified.
func WriteV2(w io.Writer, p *Profile) error {
	return WriteVersion(w, p, Version2)
}

// WriteV3 encodes p to w in the version-3 format: the version-2 layout
// plus the interned stack-samples section.
func WriteV3(w io.Writer, p *Profile) error {
	return WriteVersion(w, p, Version3)
}

// WriteVersion encodes p to w in the given format version. Versions 1
// and 2 have no stack section; writing a stacked profile at those
// versions drops the stacks — the documented downgrade, applied
// identically by gprofd when a client asks for an older version.
func WriteVersion(w io.Writer, p *Profile, version int) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("gmon: refusing to write invalid profile: %w", err)
	}
	arcs := p.Arcs
	if version >= Version2 && !sort.SliceIsSorted(arcs, func(i, j int) bool {
		if arcs[i].FromPC != arcs[j].FromPC {
			return arcs[i].FromPC < arcs[j].FromPC
		}
		return arcs[i].SelfPC < arcs[j].SelfPC
	}) {
		arcs = append([]Arc(nil), arcs...)
		sortArcs(arcs)
	}
	var stacks []StackSample
	if version >= Version3 {
		stacks = p.Stacks
		if !sort.SliceIsSorted(stacks, func(i, j int) bool {
			return compareStacks(stacks[i].PCs, stacks[j].PCs) < 0
		}) {
			stacks = append([]StackSample(nil), stacks...)
			SortStacks(stacks)
		}
	}
	e, err := NewWriter(w, Header{
		Version: version, Hz: p.ClockHz(),
		Low: p.Hist.Low, High: p.Hist.High, Step: p.Hist.Step,
		NumBuckets: len(p.Hist.Counts), NumArcs: len(arcs),
		NumStacks: len(stacks),
	})
	if err != nil {
		return err
	}
	if err := e.WriteCounts(p.Hist.Counts); err != nil {
		e.Close()
		return err
	}
	if err := e.WriteArcs(arcs); err != nil {
		e.Close()
		return err
	}
	if err := e.WriteStacks(stacks); err != nil {
		e.Close()
		return err
	}
	return e.Close()
}

// Reader streams a profile data file: NewReader parses the header, then
// ReadCounts must drain the histogram section, then ReadArcs/Next
// iterate the arc records — whole profiles are never materialized
// unless the caller collects them (Read does).
type Reader struct {
	br          *binio.Reader
	src         io.Closer // decompressor interposed by OpenReader, if any
	h           Header
	countsDone  bool
	narc        int // arcs still unread
	nstack      int // stacks still unread (version 3)
	prevFrom1   int64
	prevSelf    int64
	prevPC0     int64
	prevStack   []int64 // previous stack record, for the ordering check
	headerBytes int64
	histBytes   int64
	arcBytes    int64
	stackBytes  int64
	err         error
}

// NewReader parses the file header from r. The Reader buffers its
// input; r may be positioned past the profile's last byte afterwards.
func NewReader(r io.Reader) (*Reader, error) {
	return newReaderBR(binio.NewReader(r))
}

// newReaderBR parses the file header from an already-constructed block
// reader — streaming (NewReader) or fixed over in-memory bytes
// (OpenBytes), which is how memory-mapped files decode with zero
// copies.
func newReaderBR(br *binio.Reader) (*Reader, error) {
	fail := func(err error) (*Reader, error) {
		br.Close()
		return nil, err
	}
	var m [4]byte
	br.Full(m[:])
	if err := br.Err(); err != nil {
		return fail(fmt.Errorf("gmon: reading magic: %w", err))
	}
	if m != magic {
		return fail(fmt.Errorf("gmon: bad magic %q (not a profile data file)", m[:]))
	}
	version := br.U32()
	if err := br.Err(); err != nil {
		return fail(fmt.Errorf("gmon: reading version: %w", err))
	}
	if version < Version1 || version > Version3 {
		return fail(fmt.Errorf("gmon: unsupported version %d (want %d..%d)", version, Version1, Version3))
	}
	h := Header{Version: int(version)}
	h.Hz = br.I64()
	h.Low = br.I64()
	h.High = br.I64()
	h.Step = br.I64()
	nbkt := br.U32()
	narc := br.U32()
	var nstack uint32
	if version == Version3 {
		nstack = br.U32()
	}
	if err := br.Err(); err != nil {
		return fail(fmt.Errorf("gmon: reading header: %w", eofIsTruncation(err)))
	}
	if nbkt > maxRecords || narc > maxRecords {
		return fail(fmt.Errorf("gmon: implausible record counts (%d buckets, %d arcs)", nbkt, narc))
	}
	if nstack > maxRecords {
		return fail(fmt.Errorf("gmon: implausible stack count %d", nstack))
	}
	if h.Step <= 0 {
		return fail(fmt.Errorf("gmon: histogram step %d (want > 0)", h.Step))
	}
	if h.High < h.Low {
		return fail(fmt.Errorf("gmon: histogram bounds [%#x,%#x) inverted", h.Low, h.High))
	}
	geom := Histogram{Low: h.Low, High: h.High, Step: h.Step}
	if want := geom.NumBuckets(); int(nbkt) != want {
		return fail(fmt.Errorf("gmon: histogram has %d buckets, bounds imply %d", nbkt, want))
	}
	h.NumBuckets, h.NumArcs, h.NumStacks = int(nbkt), int(narc), int(nstack)
	return &Reader{br: br, h: h, narc: int(narc), nstack: int(nstack), headerBytes: br.Offset()}, nil
}

// Header returns the parsed file header.
func (d *Reader) Header() Header { return d.h }

// ReadCounts decodes the histogram counts section, appending to
// dst[:0]'s storage when its capacity suffices (pass nil to allocate).
// It must be called once, before the first ReadArcs.
func (d *Reader) ReadCounts(dst []uint32) ([]uint32, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.countsDone {
		return nil, d.fail(fmt.Errorf("gmon: histogram counts already read"))
	}
	n := d.h.NumBuckets
	dst = dst[:0]
	for len(dst) < n {
		c := n - len(dst)
		if c > chunkRecords {
			c = chunkRecords
		}
		start := len(dst)
		dst = binio.Grow(dst, c, n)
		if d.h.Version == Version1 {
			d.br.U32s(dst[start:])
		} else {
			for i := start; i < len(dst); i++ {
				v := d.br.Uvarint()
				if v > math.MaxUint32 {
					return nil, d.fail(fmt.Errorf("gmon: histogram count %d overflows uint32", v))
				}
				dst[i] = uint32(v)
			}
		}
		if err := d.br.Err(); err != nil {
			return nil, d.fail(fmt.Errorf("gmon: reading histogram: %w", eofIsTruncation(err)))
		}
	}
	if dst == nil {
		dst = []uint32{}
	}
	d.countsDone = true
	d.histBytes = d.br.Offset() - d.headerBytes
	return dst, nil
}

// ReadArcs decodes up to len(dst) arc records into dst and reports how
// many were decoded; once every declared record has been returned it
// reports 0, io.EOF. A short or corrupt arc section is an error, never
// a partial batch.
func (d *Reader) ReadArcs(dst []Arc) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if !d.countsDone {
		return 0, d.fail(fmt.Errorf("gmon: arcs read before histogram counts"))
	}
	if d.narc == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > d.narc {
		n = d.narc
	}
	if d.h.Version == Version1 {
		// Arcs are fixed 24-byte records: decode straight out of the
		// block buffer, a batch per fill, instead of field by field.
		const arcSize = 24
		for i := 0; i < n; {
			batch := n - i
			if batch > binio.BufSize/arcSize {
				batch = binio.BufSize / arcSize
			}
			s := d.br.View(batch * arcSize)
			if s == nil {
				break
			}
			for j := range dst[i : i+batch] {
				rec := s[j*arcSize:]
				dst[i+j].FromPC = int64(binary.LittleEndian.Uint64(rec))
				dst[i+j].SelfPC = int64(binary.LittleEndian.Uint64(rec[8:]))
				dst[i+j].Count = int64(binary.LittleEndian.Uint64(rec[16:]))
			}
			i += batch
		}
	} else {
		for i := range dst[:n] {
			if !d.decodeArcV2(&dst[i]) {
				break
			}
		}
	}
	if err := d.br.Err(); err != nil {
		read := d.h.NumArcs - d.narc
		return 0, d.fail(fmt.Errorf("gmon: reading arc %d: %w", read, eofIsTruncation(err)))
	}
	if d.err != nil {
		return 0, d.err
	}
	d.narc -= n
	if d.narc == 0 {
		d.arcBytes = d.br.Offset() - d.headerBytes - d.histBytes
	}
	return n, nil
}

// decodeArcV2 decodes one delta-encoded record; false means d.err or
// the underlying reader's error is set.
func (d *Reader) decodeArcV2(a *Arc) bool {
	dFrom := d.br.Uvarint()
	if dFrom > math.MaxInt64 || int64(dFrom) > math.MaxInt64-d.prevFrom1 {
		d.fail(fmt.Errorf("gmon: arc call-site pc overflows"))
		return false
	}
	from1 := d.prevFrom1 + int64(dFrom)
	var self int64
	if dFrom == 0 {
		dSelf := d.br.Uvarint()
		if dSelf > math.MaxInt64 || int64(dSelf) > math.MaxInt64-d.prevSelf {
			d.fail(fmt.Errorf("gmon: arc callee pc overflows"))
			return false
		}
		self = d.prevSelf + int64(dSelf)
	} else {
		v := d.br.Uvarint()
		if v > math.MaxInt64 {
			d.fail(fmt.Errorf("gmon: arc callee pc overflows"))
			return false
		}
		self = int64(v)
	}
	cnt := d.br.Uvarint()
	if cnt > math.MaxInt64 {
		d.fail(fmt.Errorf("gmon: arc count overflows"))
		return false
	}
	if d.br.Err() != nil {
		return false
	}
	a.FromPC = from1 - 1
	a.SelfPC = self
	a.Count = int64(cnt)
	d.prevFrom1, d.prevSelf = from1, self
	return true
}

// ReadStacks decodes up to len(dst) stack records into dst and reports
// how many were decoded; once every declared record has been returned
// it reports 0, io.EOF. The arc section must be fully drained first.
// Each record's PCs slice is freshly allocated — decoded stacks are
// merged by aliasing, so they must outlive any reader scratch.
func (d *Reader) ReadStacks(dst []StackSample) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if !d.countsDone || d.narc != 0 {
		return 0, d.fail(fmt.Errorf("gmon: stacks read before histogram counts and arcs"))
	}
	if d.nstack == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > d.nstack {
		n = d.nstack
	}
	for i := range dst[:n] {
		if !d.decodeStackV3(&dst[i]) {
			break
		}
	}
	if err := d.br.Err(); err != nil {
		read := d.h.NumStacks - d.nstack
		return 0, d.fail(fmt.Errorf("gmon: reading stack %d: %w", read, eofIsTruncation(err)))
	}
	if d.err != nil {
		return 0, d.err
	}
	d.nstack -= n
	if d.nstack == 0 {
		d.stackBytes = d.br.Offset() - d.headerBytes - d.histBytes - d.arcBytes
	}
	return n, nil
}

// decodeStackV3 decodes one delta-encoded stack record; false means
// d.err or the underlying reader's error is set. The per-record
// allocation is bounded by the depth check, so a lying header cannot
// drive it past MaxStackDepth words.
func (d *Reader) decodeStackV3(s *StackSample) bool {
	dpc0 := d.br.Uvarint()
	if dpc0 > math.MaxInt64 || int64(dpc0) > math.MaxInt64-d.prevPC0 {
		d.fail(fmt.Errorf("gmon: stack leaf pc overflows"))
		return false
	}
	pc0 := d.prevPC0 + int64(dpc0)
	depth := d.br.Uvarint()
	if depth == 0 || depth > MaxStackDepth {
		if d.br.Err() == nil {
			d.fail(fmt.Errorf("gmon: stack depth %d (want 1..%d)", depth, MaxStackDepth))
		}
		return false
	}
	pcs := make([]int64, depth)
	pcs[0] = pc0
	for i := 1; i < int(depth); i++ {
		delta := d.br.Varint()
		prev := pcs[i-1]
		if (delta > 0 && prev > math.MaxInt64-delta) || (delta < 0 && prev < math.MinInt64-delta) {
			d.fail(fmt.Errorf("gmon: stack frame pc overflows"))
			return false
		}
		pc := prev + delta
		if pc < 0 {
			d.fail(fmt.Errorf("gmon: stack frame has invalid pc %#x", pc))
			return false
		}
		pcs[i] = pc
	}
	cnt := d.br.Uvarint()
	if cnt == 0 || cnt > math.MaxInt64 {
		if d.br.Err() == nil {
			d.fail(fmt.Errorf("gmon: stack count %d out of range", cnt))
		}
		return false
	}
	if d.br.Err() != nil {
		return false
	}
	// The format defines records in strictly increasing canonical order
	// (the writer enforces it); accepting violations would let corrupt
	// files smuggle duplicate paths past Merge's fold and break
	// re-encoding, so the reader rejects them too.
	if d.prevStack != nil && compareStacks(pcs, d.prevStack) <= 0 {
		d.fail(fmt.Errorf("gmon: stack records out of order"))
		return false
	}
	s.PCs = pcs
	s.Count = int64(cnt)
	d.prevPC0 = pc0
	d.prevStack = pcs
	return true
}

// Next returns the next arc record, reporting io.EOF after the last.
func (d *Reader) Next() (Arc, error) {
	var a [1]Arc
	n, err := d.ReadArcs(a[:])
	if n == 1 {
		return a[0], nil
	}
	return Arc{}, err
}

// Stats reports the file's layout; section sizes are complete once the
// corresponding section has been fully read.
func (d *Reader) Stats() FileStats {
	return FileStats{
		Version:     d.h.Version,
		HeaderBytes: d.headerBytes,
		HistBytes:   d.histBytes,
		ArcBytes:    d.arcBytes,
		StackBytes:  d.stackBytes,
		TotalBytes:  d.br.Offset(),
	}
}

// Close releases the Reader's buffer and the decompressor OpenReader
// may have interposed. The Reader must not be used afterwards.
func (d *Reader) Close() error {
	if d.br == nil {
		return d.err
	}
	err := d.br.Close()
	d.br = nil
	if d.src != nil {
		if cerr := d.src.Close(); err == nil {
			err = cerr
		}
		d.src = nil
	}
	if d.err != nil {
		return d.err
	}
	return err
}

// fail records err as the Reader's sticky error.
func (d *Reader) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// eofIsTruncation maps a clean EOF to io.ErrUnexpectedEOF: inside a
// declared section, running out of bytes is truncation even when it
// happens at a value boundary.
func eofIsTruncation(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Read decodes a profile from r (either format version, gzip or
// identity transport — it delegates to the OpenReader sniff).
func Read(r io.Reader) (*Profile, error) {
	return Open(r)
}

// ReadInto decodes a profile from r into p, reusing p's histogram and
// arc storage when its capacity suffices — the streaming merge's
// per-worker scratch path decodes whole files without allocating. Like
// Read it accepts gzip or identity transport.
func ReadInto(r io.Reader, p *Profile) error {
	return OpenInto(r, p)
}

// ReadStats decodes a profile and reports its layout. For a gzip
// stream the section sizes describe the decompressed payload.
func ReadStats(r io.Reader) (*Profile, FileStats, error) {
	d, err := OpenReader(r)
	if err != nil {
		return nil, FileStats{}, err
	}
	defer d.Close()
	p := &Profile{}
	st, err := decodeInto(d, p)
	if err != nil {
		return nil, st, err
	}
	return p, st, nil
}

func decodeInto(d *Reader, p *Profile) (FileStats, error) {
	h := d.Header()
	p.Hz = h.Hz
	p.Hist.Low, p.Hist.High, p.Hist.Step = h.Low, h.High, h.Step
	counts, err := d.ReadCounts(p.Hist.Counts)
	if err != nil {
		return d.Stats(), err
	}
	p.Hist.Counts = counts
	arcs := p.Arcs[:0]
	for len(arcs) < h.NumArcs {
		c := h.NumArcs - len(arcs)
		if c > chunkRecords {
			c = chunkRecords
		}
		start := len(arcs)
		arcs = binio.Grow(arcs, c, h.NumArcs)
		n, err := d.ReadArcs(arcs[start:])
		if err != nil {
			return d.Stats(), err
		}
		arcs = arcs[:start+n]
	}
	if arcs == nil {
		arcs = []Arc{}
	}
	p.Arcs = arcs
	// Reset, don't keep: when p is a reused scratch profile, a
	// stack-less file must not inherit the previous file's stacks.
	stacks := p.Stacks[:0]
	for len(stacks) < h.NumStacks {
		c := h.NumStacks - len(stacks)
		if c > chunkRecords {
			c = chunkRecords
		}
		start := len(stacks)
		stacks = binio.Grow(stacks, c, h.NumStacks)
		n, err := d.ReadStacks(stacks[start:])
		if err != nil {
			return d.Stats(), err
		}
		stacks = stacks[:start+n]
	}
	p.Stacks = stacks
	return d.Stats(), p.Validate()
}

// WriteFile writes p to the named file in the default format. The block
// codec writes the *os.File directly, so there is exactly one buffer
// layer between records and the disk.
func WriteFile(name string, p *Profile) error {
	return WriteFileVersion(name, p, Version1)
}

// WriteFileVersion writes p to the named file in the given format
// version (Version1..Version3).
func WriteFileVersion(name string, p *Profile, version int) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := WriteVersion(f, p, version); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readMapped decodes the named file into p through a read-only binio
// mapping: raw version-1/2 files decode zero-copy straight out of the
// page cache. mapped reports false when the file could not be mapped at
// all (a pipe, a permission error) — the caller falls back to the
// streaming open so the error, if real, surfaces with the same shape as
// before.
func readMapped(name string, p *Profile) (st FileStats, mapped bool, err error) {
	m, err := binio.Map(name)
	if err != nil {
		return FileStats{}, false, nil
	}
	defer m.Close()
	d, err := OpenBytes(m.Data)
	if err != nil {
		return FileStats{}, true, err
	}
	defer d.Close()
	st, err = decodeInto(d, p)
	return st, true, err
}

// ReadFile reads a profile from the named file, decoding through a
// memory mapping when the platform allows it.
func ReadFile(name string) (*Profile, error) {
	p := &Profile{}
	if _, mapped, err := readMapped(name, p); mapped {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return p, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err = Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

// ReadFileStats reads a profile from the named file and reports its
// on-disk layout.
func ReadFileStats(name string) (*Profile, FileStats, error) {
	p := &Profile{}
	if st, mapped, err := readMapped(name, p); mapped {
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", name, err)
		}
		return p, st, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, FileStats{}, err
	}
	defer f.Close()
	p, st, err := ReadStats(f)
	if err != nil {
		return nil, st, fmt.Errorf("%s: %w", name, err)
	}
	return p, st, nil
}

// ReadFiles reads and merges several profile data files, the paper's
// "profile of many executions". See ReadFilesCtx for the concurrent
// variant.
func ReadFiles(names []string) (*Profile, error) {
	return ReadFilesCtx(context.Background(), names, 1)
}
