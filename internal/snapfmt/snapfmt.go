// Package snapfmt is the one byte codec behind every snapshot this module
// writes: the GB-KMV index and the vocabulary. A stream is an 8-byte magic
// and the format version, then a sequence of sections with no framing of
// their own — the reader knows the layout, every count precedes the data it
// sizes — built from three encodings:
//
//	scalar   uvarint (canonical: no padding bytes), zigzag varint, 8-byte
//	         little-endian float64/uint64
//	strings  count, total byte length, the lengths, then the bytes back to
//	         back (StringTable)
//	records  record count, total element count, then per record its length
//	         (a uvarint) and its gaps — the first element, then the strictly
//	         positive deltas — each as a 4-bit class, 6 more bits past class
//	         14, and the gap's bits below its leading 1, zero-padded to a
//	         byte (records.go); loads as those same bytes (PackedRecords, what
//	         the GB-KMV index keeps) or decoded into one []Element slab
//
// Both ends work through one fixed 64 kB buffer, whatever the size of the
// collection. The reader never allocates from a count it has not checked
// against the bytes the source still holds (a byte holds at most two
// elements, each at most one 8-byte Element decoded), so a corrupt or hostile
// count fails as a truncated stream instead of an allocation. Sources that
// cannot say how long they are (a bufio.Reader, a network body) are read in
// steps that at most double what has already arrived.
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

	"gbkmv/internal/hash"
)

// Version is the snapshot format version, written after every magic. There
// is exactly one: a stream with any other version is ErrFormat. (1 stored the
// index's hash values as float64, 2 as 32-bit keys; 3 stores none — an index
// stream is the inputs its sketch is derived from; 4 drops the cost-model
// knobs from an index's options, which are the library's four; 5 codes a
// record's gaps in bits, by class, where 4 wrote one uvarint a gap.)
const Version = 5

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
	w   io.Writer
	buf []byte
	err error
}

// NewWriter returns a section writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, bufSize)}
}

// Flush writes the buffered tail and returns the stream's first error.
func (w *Writer) Flush() error {
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

// fail records err as the stream's error (first one wins).
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Write copies p into the stream as it is, whatever its length.
func (w *Writer) Write(p []byte) (int, error) {
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
		w.fail(fmt.Errorf("snapfmt: negative count %d", v))
		return
	}
	w.Uvarint(uint64(v))
}

// Varint writes a signed value zigzag-coded.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (w *Writer) Uint64(v uint64) { binary.LittleEndian.PutUint64(w.room(8), v) }

func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Elements writes a count-prefixed element list as uvarints (no ordering
// assumed).
func (w *Writer) Elements(s []hash.Element) {
	w.Int(len(s))
	for _, e := range s {
		w.Uvarint(uint64(e))
	}
}

// StringTable writes a string table: count, total byte length, the lengths,
// then every string's bytes back to back. Here the n strings are length(i)
// bytes long and their bytes are the pieces of text in order, however those
// are cut.
func (w *Writer) StringTable(n int, length func(i int) int, text [][]byte) {
	total := 0
	for _, piece := range text {
		total += len(piece)
	}
	w.Int(n)
	w.Int(total)
	for i := range n {
		w.Int(length(i))
	}
	for _, piece := range text {
		w.Write(piece)
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
}

// NewReader returns a section reader over r. The source's length bounds
// every allocation when r can report it (sourceLen).
func NewReader(r io.Reader) *Reader {
	sr := &Reader{r: r, buf: make([]byte, bufSize)}
	sr.left, sr.bounded, sr.err = sourceLen(r)
	return sr
}

// sourceLen reports how many bytes r still holds, when it can say: through
// Len, as bytes.Reader and bytes.Buffer do, or Seek, as files do. A failure
// to seek back to where r was is the stream's error.
func sourceLen(r io.Reader) (left int64, bounded bool, err error) {
	switch src := r.(type) {
	case interface{ Len() int }:
		return int64(src.Len()), true, nil
	case io.Seeker:
		cur, err := src.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false, nil
		}
		end, err := src.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, false, nil
		}
		_, err = src.Seek(cur, io.SeekStart)
		return end - cur, true, err
	}
	return 0, false, nil
}

// Done returns the stream's first error, and requires the source to be
// exhausted: a snapshot is a whole file, and bytes after its last section
// mean the file is not what the layout says.
func (r *Reader) Done() error {
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

// Magic consumes a stream magic and version. A mismatch in either — or a
// stream too short to hold them — is ErrFormat, not corruption; the error
// quotes the header it found, which names the stream an older build wrote.
func (r *Reader) Magic(magic string) {
	if r.err != nil {
		return
	}
	if n := r.fill(magicLen + 1); n < magicLen+1 {
		if r.err == nil {
			r.fail(fmt.Errorf("%w: found %q, not a %q header", ErrFormat, r.buf[r.pos:r.pos+n], magic))
		}
		return
	}
	b := r.buf[r.pos : r.pos+magicLen+1]
	if string(b[:magicLen]) != magic {
		r.fail(fmt.Errorf("%w: found %q, not a %q header", ErrFormat, b[:magicLen], magic))
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

// StringTable reads a string table without a string an entry: the strings'
// bytes back to back, and n+1 offsets into them — string i is
// text[offsets[i]:offsets[i+1]]. A table of 4 GB or more, which the 32-bit
// offsets cannot address, is corrupt.
func (r *Reader) StringTable() (offsets []uint32, text []byte) {
	n, total := r.Int(), r.Int()
	if r.err == nil && total >= math.MaxUint32 {
		r.Corrupt("string table of %d bytes overflows its 32-bit offsets", total)
	}
	offsets = make([]uint32, 1, 1+r.grant(n, 1))
	end := 0
	for len(offsets) <= n && r.err == nil {
		l := r.Int()
		if l > total-end {
			r.Corrupt("string table overruns its declared %d bytes", total)
			break
		}
		end += l
		offsets = append(offsets, uint32(end))
	}
	if r.err == nil && end != total {
		r.Corrupt("string table holds %d bytes, declares %d", end, total)
	}
	text = make([]byte, 0, r.grant(total, 1))
	for len(text) < total && r.err == nil {
		text = append(text, r.need(min(total-len(text), bufSize))...)
	}
	if r.err != nil {
		return nil, nil
	}
	return offsets, text
}
