package report

import (
	"io"
	"math"
	"strconv"
)

// out is the append buffer a text render writes through. Every line is
// appended to one reused byte slice, which goes to the io.Writer in
// blocks of about flushAt bytes; no line allocates or calls fmt. The
// first write error is kept and returned by flush, and later writes
// are dropped.
type out struct {
	w   io.Writer
	b   []byte
	err error
}

const flushAt = 64 << 10

func newOut(w io.Writer) *out {
	return &out{w: w, b: make([]byte, 0, flushAt+1024)}
}

// nl ends a line, handing the buffer to the writer once it is full.
func (o *out) nl() {
	o.b = append(o.b, '\n')
	if len(o.b) >= flushAt {
		o.flush()
	}
}

// flush writes the buffered bytes and returns the first write error.
func (o *out) flush() error {
	if o.err == nil && len(o.b) > 0 {
		_, o.err = o.w.Write(o.b)
	}
	o.b = o.b[:0]
	return o.err
}

func (o *out) str(s string) { o.b = append(o.b, s...) }

const blanks = "                                                                "

// pad appends n spaces.
func (o *out) pad(n int) {
	for n > len(blanks) {
		o.b = append(o.b, blanks...)
		n -= len(blanks)
	}
	if n > 0 {
		o.b = append(o.b, blanks[:n]...)
	}
}

// rjust right-justifies the bytes appended since start in a field of
// width columns, as fmt's %*s does.
func (o *out) rjust(start, width int) {
	n := len(o.b) - start
	if n >= width {
		return
	}
	o.pad(width - n)
	copy(o.b[start+width-n:], o.b[start:start+n])
	for i := start; i < start+width-n; i++ {
		o.b[i] = ' '
	}
}

// fixed appends v as fmt's %<width>.<prec>f would.
func (o *out) fixed(v float64, prec, width int) {
	start := len(o.b)
	o.b = appendFixed(o.b, v, prec)
	o.rjust(start, width)
}

// int appends v as %<width>d.
func (o *out) int(v int64, width int) {
	start := len(o.b)
	o.b = strconv.AppendInt(o.b, v, 10)
	o.rjust(start, width)
}

// intLeft appends v as %-<width>d.
func (o *out) intLeft(v int64, width int) {
	start := len(o.b)
	o.b = strconv.AppendInt(o.b, v, 10)
	o.pad(width - (len(o.b) - start))
}

// called appends a called+self column, "n" or "n+self" when self > 0,
// right-justified to width.
func (o *out) called(n, self int64, width int) {
	start := len(o.b)
	o.b = strconv.AppendInt(o.b, n, 10)
	if self > 0 {
		o.b = append(o.b, '+')
		o.b = strconv.AppendInt(o.b, self, 10)
	}
	o.rjust(start, width)
}

// index appends an entry reference, " [n]".
func (o *out) index(n int) {
	o.b = append(o.b, " ["...)
	o.b = strconv.AppendInt(o.b, int64(n), 10)
	o.b = append(o.b, ']')
}

// label appends a name with its cycle tag, e.g. "SUB1 <cycle1>".
func (o *out) label(name string, cycle int) {
	o.b = append(o.b, name...)
	if cycle != 0 {
		o.b = append(o.b, " <cycle"...)
		o.b = strconv.AppendInt(o.b, int64(cycle), 10)
		o.b = append(o.b, '>')
	}
}

// fixedLimit bounds the fast path of appendFixed: below 2^30 the
// scaled value's float64 rounding error is under 2^-23, far inside
// tieMargin.
const (
	fixedLimit = 1 << 30
	tieMargin  = 1e-6
)

// appendFixed appends v with prec (1 or 2) digits after the point,
// byte-identical to strconv.AppendFloat(b, v, 'f', prec, 64) for every
// float64. Non-negative values whose scaled magnitude is below
// fixedLimit are scaled, floored and rounded in integers, unless the
// scaled fraction lies within tieMargin of one half: the product may
// have rounded onto a tie, and exact ties round by the decimal
// expansion, so strconv decides. Near an integer the product may land
// on either side, but both round to the same integer. Negative values,
// -0, NaN, ±Inf and large values also go to strconv.
func appendFixed(b []byte, v float64, prec int) []byte {
	scale := 10.0
	if prec == 2 {
		scale = 100
	}
	s := v * scale
	if math.Signbit(v) || !(s < fixedLimit) || prec < 1 || prec > 2 {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	fl := math.Floor(s)
	frac := s - fl
	if math.Abs(frac-0.5) <= tieMargin {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	n := uint64(fl)
	if frac > 0.5 {
		n++
	}
	b = strconv.AppendUint(b, n/uint64(scale), 10)
	b = append(b, '.')
	frac10 := n % uint64(scale)
	if prec == 2 {
		return append(b, byte('0'+frac10/10), byte('0'+frac10%10))
	}
	return append(b, byte('0'+frac10))
}
