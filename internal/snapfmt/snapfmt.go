// Package snapfmt is the one byte codec behind every snapshot this module
// writes: the GB-KMV index, the rebuild-on-load engines' (options, records)
// payload and the vocabulary. A stream is a
// sequence of sections with no framing of their own — the reader knows the
// layout, every count precedes the data it sizes — built from two
// encodings:
//
//	scalar   uvarint (canonical: no padding bytes), zigzag varint, 8-byte
//	         little-endian float64/uint64, length-prefixed string
//	records  record count, total element count, then per record its length,
//	         first element and strictly positive deltas, all uvarint
//	         (records.go); loads as those same bytes (PackedRecords, what the
//	         GB-KMV index keeps) or decoded into one []Element slab
//
// Both ends work through one fixed 64 kB buffer, whatever the size of the
// collection. The reader never allocates from a count it has not checked
// against the bytes the source still holds (one delta byte is at most one
// 8-byte Element), so a corrupt or hostile count fails as a truncated
// stream instead of an allocation. Sources that cannot say how long they
// are (a bufio.Reader, a network body) are read in steps that at most double
// what has already arrived.
//
// Integrity is not this package's job: files carry their CRC64 in the commit
// record (internal/server) and are verified before a byte is parsed. What is
// checked here is structure — every value a later index operation relies on.
package snapfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"gbkmv/internal/hash"
)

// Version is the snapshot format version, written after every magic. There
// is exactly one: a stream with any other version is ErrFormat. (1 stored the
// index's hash values as float64, 2 as 32-bit keys; 3 stores none — an index
// stream is the inputs its sketch is derived from.)
const Version = 3

// ErrFormat marks a stream that is not a snapshot of this format version:
// the magic or the version byte did not match. It is distinct from
// corruption — the bytes may be a perfectly intact snapshot written by an
// older build — and callers surface it as "rebuild the collection".
var ErrFormat = errors.New("not a snapshot of the current format")

// ErrCorrupt marks a stream that started as a snapshot but is truncated or
// structurally invalid.
var ErrCorrupt = errors.New("corrupt snapshot")

const (
	bufSize  = 64 << 10
	magicLen = 8
)

// Writer buffers sections into an io.Writer. Errors are sticky: after the
// first failure every call is a no-op and Flush reports it.
type Writer struct {
	w    io.Writer
	buf  []byte
	err  error
	nest int
}

// NewWriter returns a section writer over w. Handed a *Writer — a Save
// called from inside another Save — it returns that writer, so one buffer
// serves the whole stream and only the outermost Flush reaches w.
func NewWriter(w io.Writer) *Writer {
	if sw, ok := w.(*Writer); ok {
		sw.nest++
		return sw
	}
	return &Writer{w: w, buf: make([]byte, 0, bufSize)}
}

// Flush ends the Save that called NewWriter: the outermost one writes the
// buffered tail and returns the stream's first error.
func (w *Writer) Flush() error {
	if w.nest > 0 {
		w.nest--
		return w.err
	}
	w.flush()
	return w.err
}

func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room returns n writable bytes at the buffer's tail, flushing first when
// they would not fit. n must not exceed bufSize.
func (w *Writer) room(n int) []byte {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// Fail records err as the stream's error (first one wins).
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Write implements io.Writer, so a registered engine that knows nothing of
// this package can still write its payload into the stream.
func (w *Writer) Write(p []byte) (int, error) { return writeBytes(w, p) }

// WriteString implements io.StringWriter (no copy of s on the way in).
func (w *Writer) WriteString(s string) (int, error) { return writeBytes(w, s) }

func writeBytes[B []byte | string](w *Writer, p B) (int, error) {
	for rest := p; len(rest) > 0 && w.err == nil; {
		n := min(len(rest), bufSize)
		copy(w.room(n), rest[:n])
		rest = rest[n:]
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Magic writes an 8-byte stream magic followed by the format version.
func (w *Writer) Magic(magic string) {
	if len(magic) != magicLen {
		panic("snapfmt: magic must be 8 bytes")
	}
	copy(w.room(magicLen), magic)
	w.Byte(Version)
}

func (w *Writer) Byte(b byte) { w.room(1)[0] = b }

func (w *Writer) Uvarint(v uint64) {
	if len(w.buf)+binary.MaxVarintLen64 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int writes a non-negative int as a uvarint; a negative one is a bug in
// the caller's state and fails the stream.
func (w *Writer) Int(v int) {
	if v < 0 {
		w.Fail(fmt.Errorf("snapfmt: negative count %d", v))
		return
	}
	w.Uvarint(uint64(v))
}

// Varint writes a signed value zigzag-coded.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (w *Writer) Uint64(v uint64) { binary.LittleEndian.PutUint64(w.room(8), v) }

func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

func (w *Writer) String(s string) {
	w.Int(len(s))
	w.WriteString(s)
}

// Elements writes a count-prefixed element list as uvarints (no ordering
// assumed).
func (w *Writer) Elements(s []hash.Element) {
	w.Int(len(s))
	for _, e := range s {
		w.Uvarint(uint64(e))
	}
}

// Strings writes a string table: count, total byte length, the lengths,
// then every string's bytes back to back.
func (w *Writer) Strings(s []string) {
	total := 0
	for _, t := range s {
		total += len(t)
	}
	w.Int(len(s))
	w.Int(total)
	for _, t := range s {
		w.Int(len(t))
	}
	for _, t := range s {
		w.WriteString(t)
	}
}

// Reader parses sections from an io.Reader. Errors are sticky: after the
// first failure every call returns a zero value, so a loader reads a whole
// header and checks Err once.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, end int
	// left is how many bytes the source still holds beyond the buffer; it
	// means something only when the source could say (bounded).
	left    int64
	bounded bool
	err     error
	nest    int
}

// NewReader returns a section reader over r. Handed a *Reader — a loader
// called from inside another — it returns that reader, so nested loaders
// consume exactly their own bytes of one shared buffer. The source's length
// bounds every allocation when r can report it (Len, as bytes.Reader and
// bytes.Buffer do, or Seek, as files do).
func NewReader(r io.Reader) *Reader {
	if sr, ok := r.(*Reader); ok {
		sr.nest++
		return sr
	}
	sr := &Reader{r: r, buf: make([]byte, bufSize)}
	switch src := r.(type) {
	case interface{ Len() int }:
		sr.left, sr.bounded = int64(src.Len()), true
	case io.Seeker:
		if cur, err := src.Seek(0, io.SeekCurrent); err == nil {
			if end, err := src.Seek(0, io.SeekEnd); err == nil {
				sr.left, sr.bounded = end-cur, true
				if _, err := src.Seek(cur, io.SeekStart); err != nil {
					sr.err = err
				}
			}
		}
	}
	return sr
}

// Done ends the loader that called NewReader and returns the stream's first
// error. The outermost loader also requires the source to be exhausted: a
// snapshot is a whole file, and bytes after its last section mean the file
// is not what the layout says.
func (r *Reader) Done() error {
	if r.nest > 0 {
		r.nest--
		return r.err
	}
	if r.err == nil && r.fill(1) > 0 {
		r.Corrupt("bytes after the last section")
	}
	return r.err
}

// Err returns the stream's first error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Corrupt records a structural error, found here or by a loader in values it
// read (first error wins).
func (r *Reader) Corrupt(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// fill makes up to n bytes (n ≤ bufSize) available at buf[pos:end] and
// returns how many are; fewer than n means the source ended.
func (r *Reader) fill(n int) int {
	if r.end-r.pos >= n {
		return n
	}
	if r.err != nil {
		return 0
	}
	copy(r.buf, r.buf[r.pos:r.end])
	r.end -= r.pos
	r.pos = 0
	for r.end < n {
		m, err := r.r.Read(r.buf[r.end:])
		r.end += m
		r.left = max(0, r.left-int64(m))
		if err != nil {
			if err != io.EOF {
				r.fail(err)
			}
			break
		}
	}
	return min(n, r.end-r.pos)
}

// need is fill for callers that cannot go on without all n bytes.
func (r *Reader) need(n int) []byte {
	if r.fill(n) < n {
		r.Corrupt("stream ends inside a section")
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Read implements io.Reader over the buffered stream, for registered engines
// that parse their own payload.
func (r *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n := r.fill(min(len(p), bufSize))
	if n == 0 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	copy(p, r.buf[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

// ReadByte implements io.ByteReader.
func (r *Reader) ReadByte() (byte, error) {
	if r.fill(1) < 1 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	r.pos++
	return r.buf[r.pos-1], nil
}

// Magic consumes a stream magic and version. A mismatch in either — or a
// stream too short to hold them — is ErrFormat, not corruption.
func (r *Reader) Magic(magic string) {
	if r.err != nil {
		return
	}
	if r.fill(magicLen+1) < magicLen+1 {
		if r.err == nil {
			r.fail(fmt.Errorf("%w: no %q header", ErrFormat, magic))
		}
		return
	}
	b := r.buf[r.pos : r.pos+magicLen+1]
	if string(b[:magicLen]) != magic {
		r.fail(fmt.Errorf("%w: no %q header", ErrFormat, magic))
		return
	}
	if b[magicLen] != Version {
		r.fail(fmt.Errorf("%w: format version %d, this build reads %d", ErrFormat, b[magicLen], Version))
		return
	}
	r.pos += magicLen + 1
}

func (r *Reader) Uvarint() uint64 {
	if r.pos < r.end && r.buf[r.pos] < 0x80 && r.err == nil {
		r.pos++
		return uint64(r.buf[r.pos-1])
	}
	n := r.fill(binary.MaxVarintLen64)
	v, w := binary.Uvarint(r.buf[r.pos : r.pos+n])
	switch {
	case r.err != nil:
		return 0
	case w <= 0:
		r.Corrupt("stream ends inside a section")
		return 0
	case w > 1 && r.buf[r.pos+w-1] == 0:
		// A padded varint decodes to the same value from different bytes;
		// only the shortest form is valid, so load → save is the identity.
		r.Corrupt("padded varint")
		return 0
	}
	r.pos += w
	return v
}

// Int reads a uvarint that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Corrupt("count %d overflows", v)
		return 0
	}
	return int(v)
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *Reader) Uint64() uint64 {
	if b := r.need(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	n := r.Int()
	if n > max || n > bufSize {
		r.Corrupt("string of %d bytes, at most %d expected", n, max)
		return ""
	}
	return string(r.need(n))
}

// firstStep is the first allocation step, in encoded bytes, against a source
// of unknown length.
const firstStep = bufSize

// grant decides how many of n elements, each at least size encoded bytes,
// may be allocated now. Against a source of known length that is all of
// them, once the bytes still to come can hold them; against an unknown one,
// a first step that grow doubles as data actually arrives.
func (r *Reader) grant(n, size int) int {
	if r.err != nil || n == 0 {
		return 0
	}
	if !r.bounded {
		return min(n, firstStep/size)
	}
	if avail := r.left + int64(r.end-r.pos); int64(n) > avail/int64(size) {
		r.Corrupt("section of %d elements, %d bytes remain", n, avail)
		return 0
	}
	return n
}

// grow returns s with room for more elements: only sources of unknown
// length get here (grant gave a known one everything), and doubling a slab
// that is full of decoded data keeps allocation within twice the bytes read.
func grow[T any](s []T, n int) []T {
	bigger := make([]T, len(s), min(n, 2*cap(s)))
	copy(bigger, s)
	return bigger
}

// Each reads n values with decode — which must consume at least size bytes
// a value — into one slice, under grant's allocation rule.
func Each[T any](r *Reader, n, size int, decode func() T) []T {
	dst := make([]T, 0, r.grant(n, size))
	for len(dst) < n && r.err == nil {
		if len(dst) == cap(dst) {
			dst = grow(dst, n)
		}
		dst = append(dst, decode())
	}
	if r.err != nil {
		return nil
	}
	return dst
}

// Elements reads a count-prefixed element list.
func (r *Reader) Elements() []hash.Element {
	return Each(r, r.Int(), 1, func() hash.Element { return hash.Element(r.Uvarint()) })
}

// Strings reads a string table into windows of one string slab.
func (r *Reader) Strings() []string {
	n, total := r.Int(), r.Int()
	sum := 0
	lens := Each(r, n, 1, func() int {
		l := r.Int()
		if l > total-sum {
			r.Corrupt("string table overruns its declared %d bytes", total)
			return 0
		}
		sum += l
		return l
	})
	if r.err == nil && sum != total {
		r.Corrupt("string table holds %d bytes, declares %d", sum, total)
	}
	var slab strings.Builder
	slab.Grow(r.grant(total, 1))
	for slab.Len() < total && r.err == nil {
		k := min(total-slab.Len(), bufSize)
		slab.Write(r.need(k))
	}
	if r.err != nil {
		return nil
	}
	all := slab.String()
	out := make([]string, n)
	off := 0
	for i, l := range lens {
		out[i] = all[off : off+l]
		off += l
	}
	return out
}
