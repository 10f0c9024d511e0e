package object

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/binio"
)

// Executable file format ("a.out" for the simulated machine), all fields
// little-endian, encoded by the shared block codec (internal/binio) —
// fixed-offset integer access on reused buffers, no per-field
// reflection:
//
//	magic    [4]byte "SIMX"
//	version  uint32
//	textBase int64
//	entry    int64
//	dataBase int64
//	stackTop int64
//	ntext    uint32
//	ndata    uint32
//	nfuncs   uint32
//	nglobals uint32
//	text     [ntext]int64
//	data     [ndata]int64
//	funcs    [nfuncs]{nameLen uint32, name []byte, addr int64, size int64,
//	                  fileLen uint32, file []byte,
//	                  nmarks uint32, marks [nmarks]{off int64, line int32}}
//	globals  [nglobals]{nameLen uint32, name []byte, off int64}
var imageMagic = [4]byte{'S', 'I', 'M', 'X'}

// ImageVersion is the current executable format version. Version 2
// added per-routine source files and line marks.
const ImageVersion = 2

const maxImageRecords = 1 << 28

// chunkImageWords bounds how far past the data actually seen the text,
// data, and record slices may grow, so a corrupt header cannot drive a
// huge allocation.
const chunkImageWords = 8192

// WriteImage encodes a linked image to w.
func WriteImage(w io.Writer, im *Image) error {
	bw := binio.NewWriter(w)
	putString := func(s string) {
		bw.U32(uint32(len(s)))
		bw.String(s)
	}
	bw.Bytes(imageMagic[:])
	bw.U32(uint32(ImageVersion))
	bw.I64(im.TextBase)
	bw.I64(im.Entry)
	bw.I64(im.DataBase)
	bw.I64(im.StackTop)
	bw.U32(uint32(len(im.Text)))
	bw.U32(uint32(len(im.Data)))
	bw.U32(uint32(len(im.Funcs)))
	bw.U32(uint32(len(im.globals)))
	bw.I64s(im.Text)
	bw.I64s(im.Data)
	for _, f := range im.Funcs {
		putString(f.Name)
		bw.I64(f.Addr)
		bw.I64(f.Size)
		putString(f.File)
		bw.U32(uint32(len(f.Lines)))
		for _, m := range f.Lines {
			bw.I64(m.Offset)
			bw.I32(m.Line)
		}
	}
	// Deterministic global order: by offset, ties by name.
	type g struct {
		name string
		off  int64
	}
	gs := make([]g, 0, len(im.globals))
	for name, off := range im.globals {
		gs = append(gs, g{name, off})
	}
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && (gs[j-1].off > gs[j].off ||
			(gs[j-1].off == gs[j].off && gs[j-1].name > gs[j].name)); j-- {
			gs[j-1], gs[j] = gs[j], gs[j-1]
		}
	}
	for _, x := range gs {
		putString(x.name)
		bw.I64(x.off)
	}
	return bw.Close()
}

// readImageString decodes a length-prefixed string, growing its buffer
// with the data actually seen so a lying prefix cannot over-allocate.
func readImageString(br *binio.Reader) (string, error) {
	n := br.U32()
	if br.Err() != nil {
		return "", br.Err()
	}
	if n > maxImageRecords {
		return "", fmt.Errorf("object: implausible string length %d", n)
	}
	if n <= chunkImageWords {
		buf := make([]byte, n)
		br.Full(buf)
		if err := br.Err(); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var sb strings.Builder
	var chunk [chunkImageWords]byte
	for remaining := int(n); remaining > 0; {
		c := remaining
		if c > len(chunk) {
			c = len(chunk)
		}
		br.Full(chunk[:c])
		if err := br.Err(); err != nil {
			return "", err
		}
		sb.Write(chunk[:c])
		remaining -= c
	}
	return sb.String(), nil
}

// readWords decodes n little-endian int64 words, growing the result
// with the data actually seen.
func readWords(br *binio.Reader, n int) ([]int64, error) {
	cap0 := n
	if cap0 > chunkImageWords {
		cap0 = chunkImageWords
	}
	out := make([]int64, 0, cap0)
	for len(out) < n {
		c := n - len(out)
		if c > chunkImageWords {
			c = chunkImageWords
		}
		start := len(out)
		out = binio.Grow(out, c, n)
		br.I64s(out[start:])
		if err := br.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadImage decodes an executable from r.
func ReadImage(r io.Reader) (*Image, error) {
	br := binio.NewReader(r)
	defer br.Close()
	var m [4]byte
	br.Full(m[:])
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("object: reading magic: %w", err)
	}
	if m != imageMagic {
		return nil, fmt.Errorf("object: bad magic %q (not an executable)", m[:])
	}
	version := br.U32()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if version != ImageVersion {
		return nil, fmt.Errorf("object: unsupported executable version %d", version)
	}
	im := &Image{globals: make(map[string]int64)}
	im.TextBase = br.I64()
	im.Entry = br.I64()
	im.DataBase = br.I64()
	im.StackTop = br.I64()
	ntext := br.U32()
	ndata := br.U32()
	nfuncs := br.U32()
	nglobals := br.U32()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("object: reading header: %w", err)
	}
	if ntext > maxImageRecords || ndata > maxImageRecords ||
		nfuncs > maxImageRecords || nglobals > maxImageRecords {
		return nil, fmt.Errorf("object: implausible record counts")
	}
	var err error
	if im.Text, err = readWords(br, int(ntext)); err != nil {
		return nil, err
	}
	if im.Data, err = readWords(br, int(ndata)); err != nil {
		return nil, err
	}
	capF := int(nfuncs)
	if capF > chunkImageWords {
		capF = chunkImageWords
	}
	im.Funcs = make([]Sym, 0, capF)
	for i := uint32(0); i < nfuncs; i++ {
		var s Sym
		if s.Name, err = readImageString(br); err != nil {
			return nil, err
		}
		s.Addr = br.I64()
		s.Size = br.I64()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if s.File, err = readImageString(br); err != nil {
			return nil, err
		}
		nmarks := br.U32()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nmarks > maxImageRecords {
			return nil, fmt.Errorf("object: implausible line mark count %d", nmarks)
		}
		if nmarks > 0 {
			capM := int(nmarks)
			if capM > chunkImageWords {
				capM = chunkImageWords
			}
			s.Lines = make([]LineMark, 0, capM)
			for j := uint32(0); j < nmarks; j++ {
				off := br.I64()
				line := br.I32()
				if err := br.Err(); err != nil {
					return nil, err
				}
				s.Lines = append(s.Lines, LineMark{Offset: off, Line: line})
			}
		}
		im.Funcs = append(im.Funcs, s)
	}
	for i := uint32(0); i < nglobals; i++ {
		name, err := readImageString(br)
		if err != nil {
			return nil, err
		}
		off := br.I64()
		if err := br.Err(); err != nil {
			return nil, err
		}
		im.globals[name] = off
	}
	return im, nil
}

// WriteImageFile writes an executable to the named file. The block
// codec writes the *os.File directly, so there is exactly one buffer
// layer between records and the disk.
func WriteImageFile(name string, im *Image) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := WriteImage(f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadImageFile reads an executable from the named file.
func ReadImageFile(name string) (*Image, error) {
	im, _, err := ReadImageFileStats(name)
	return im, err
}

// ReadImageFileStats reads an executable from the named file and also
// reports the file's size in bytes, for the observability layer's
// object.bytes_read accounting.
func ReadImageFileStats(name string) (*Image, int64, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	im, err := ReadImage(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return im, size, nil
}
