package snapfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"gbkmv/internal/chunked"
	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// This file is the one place the record coding lives. A record is coded as
// its length, a canonical uvarint, then a bit stream, least significant bit
// first: every element as its gap g — the element itself for the first, the
// difference from the one before for the rest — in two fields, its class
// c = bits.Len64(g), 0 to 64, and the c − 1 bits of g below its leading 1
// (none when c ≤ 1). A class up to 14 takes one nibble; nibble 15 escapes to
// six more bits holding c − 15, so an escape cannot name a class a nibble
// holds. The stream is zero-padded to a byte, so records stay byte-addressed.
// A records section is the record count, the element count and then every
// record's coding back to back. Ids handed out by a vocabulary are dense, so
// the gaps of a sorted record are small and spread over a few classes: ≈ 1.04
// to 1.09 bytes an element occurrence on the corpora here (DESIGN.md's,
// paper-batch's), against 1.29 to 1.33 as one uvarint a gap and 8 for a
// hash.Element. A byte holds at most two elements.
//
// PackedRecords keeps a collection in that coding in memory — what a bulk
// build holds of its records from the scanner on, what the GB-KMV index
// retains of them, and byte for byte what its snapshot writes for them — and
// Writer.Packed and Reader.Packed are the same coder (measure, appendRecord)
// and decoder (bitState) around a store or a stream.

const (
	nibbleMax = 14 // the largest class a nibble holds; nibble 15 escapes
	escBits   = 6  // the escape's field, c − 15
	// maxElemBytes bounds an element's coding: 4 + 6 + 63 bits.
	maxElemBytes = 10
)

// uvarintLen is the length of v's canonical uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// classBits is the length in bits of the coding of a gap of each class.
var classBits = func() (t [65]int) {
	for c := range t {
		t[c] = 4 + max(c, 1) - 1
		if c > nibbleMax {
			t[c] += escBits
		}
	}
	return t
}()

// id is what a record to code holds: elements, or the 32-bit vocabulary ids
// a builder sorts them as.
type id interface{ ~uint32 | ~uint64 }

// measure returns the length of rec's coding, rec's largest element and
// whether rec is strictly ascending (the dataset.Record invariant). One that
// is not still codes and decodes to itself — a zero gap is class 0, a
// descending one wraps 2⁶⁴ — but no loader takes it: stores remember it and
// refuse to be written.
func measure[E id](rec []E) (size int, top hash.Element, ascending bool) {
	nbits, ascending := 0, true
	var prev E
	for j, e := range rec {
		if j > 0 && e <= prev {
			ascending = false
		}
		nbits += classBits[bits.Len64(uint64(e)-uint64(prev))]
		prev, top = e, max(top, hash.Element(e))
	}
	return uvarintLen(uint64(len(rec))) + (nbits+7)/8, top, ascending
}

// appendRecord appends rec's coding to dst. The bits not yet appended are
// held in two locals so that the compiler keeps them in registers: a struct
// of them and dst would be five words, more than it keeps there, and would
// take a load and a store an element.
func appendRecord[E id](dst []byte, rec []E) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec)))
	var acc uint64 // the bits not yet appended, the first at the bottom
	var n uint     // how many: under 32 between puts
	var prev E
	for _, e := range rec {
		g := uint64(e) - uint64(prev)
		prev = e
		c := uint(bits.Len64(g))
		switch {
		case c-1 < nibbleMax: // classes 1 to 14: c + 3 bits, g's leading 1 dropped
			dst, acc, n = put(dst, acc, n, (g<<4|uint64(c))&^(1<<(c+3)), c+3)
		case c == 0:
			dst, acc, n = put(dst, acc, n, 0, 4)
		default:
			dst, acc, n = put(dst, acc, n, 15|uint64(c-15)<<4, 10)
			low, lw := g&^(1<<(c-1)), c-1
			if lw > 32 {
				dst, acc, n = put(dst, acc, n, low&math.MaxUint32, 32)
				low, lw = low>>32, lw-32
			}
			dst, acc, n = put(dst, acc, n, low, lw)
		}
	}
	// What is left, zero-padded to a byte.
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// put adds the w ≤ 32 bits of v, which has no bit above them, to the n < 32
// bits acc holds, and appends 32 of them to dst once it holds as many.
func put(dst []byte, acc uint64, n uint, v uint64, w uint) ([]byte, uint64, uint) {
	acc |= v << (n & 63)
	if n += w; n >= 32 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
		acc >>= 32
		n -= 32
	}
	return dst, acc, n
}

// leads holds each nibble class's leading bit, the decoder's table.
var leads = [16]uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// bitState is where a decoder stands in a coding b: the bits of b before
// byte k not yet decoded are the `have` low bits of acc. Above them acc may
// hold bits of b[k:] a refill took early; the next refill ORs the same bits in
// again.
type bitState struct {
	acc  uint64
	have uint
	k    int
	base int  // where b starts in the coding: nonzero once decode pads
	bad  bool // a class above 64 was read: no coding holds one
}

// end is the length of the coding decoded so far, up to its last whole byte:
// where it ends once every element is decoded.
func (st *bitState) end() int { return st.base + st.k - int(st.have/8) }

// gaps decodes elements into out, adding gaps up from prev, while b holds a
// whole 8-byte word at k and the next gap is under 2⁴⁷, and returns how many
// it decoded and the last. The refill is branch-free: a word at k shifted in
// above the bits held, k moved past the whole bytes that took, so 56 bits or
// more are held after it — three gaps of classes 1 to 14 (17 bits at most
// each), decoded straight on, or one zero or escaped gap under 2⁴⁷.
func (st *bitState) gaps(out []hash.Element, b []byte, prev hash.Element) (int, hash.Element) {
	acc, have, k := st.acc, st.have, st.k
	i := 0
	for i < len(out) && k+8 <= len(b) {
		acc |= binary.LittleEndian.Uint64(b[k:]) << (have & 63)
		k += int(63-have) >> 3
		have |= 56
		c := uint(acc & 15)
		if c-1 < nibbleMax && i+3 <= len(out) {
			o := out[i : i+3 : i+3]
			lead := leads[c]
			prev += hash.Element(lead | acc>>4&(lead-1))
			acc, have, o[0] = acc>>((c+3)&63), have-(c+3), prev
			if c = uint(acc & 15); c-1 >= nibbleMax {
				i++
				continue
			}
			lead = leads[c]
			prev += hash.Element(lead | acc>>4&(lead-1))
			acc, have, o[1] = acc>>((c+3)&63), have-(c+3), prev
			if c = uint(acc & 15); c-1 >= nibbleMax {
				i += 2
				continue
			}
			lead = leads[c]
			prev += hash.Element(lead | acc>>4&(lead-1))
			acc, have, o[2] = acc>>((c+3)&63), have-(c+3), prev
			i += 3
			continue
		}
		switch lw := 14 + uint(acc>>4&(1<<escBits-1)); {
		case c-1 < nibbleMax: // one of the last two
			lead := leads[c]
			prev += hash.Element(lead | acc>>4&(lead-1))
			acc, have = acc>>((c+3)&63), have-(c+3)
		case c == 0:
			acc, have = acc>>4, have-4
		case lw > 46:
			st.acc, st.have, st.k = acc, have, k
			return i, prev
		default:
			prev += hash.Element(1<<(lw&63) | acc>>10&(1<<(lw&63)-1))
			acc, have = acc>>((10+lw)&63), have-(10+lw)
		}
		out[i] = prev
		i++
	}
	st.acc, st.have, st.k = acc, have, k
	return i, prev
}

// widest decodes the escaped gap at the head of acc, one of 2⁴⁷ or more,
// whose bits outnumber what a refill holds: b's bytes come in one at a time.
func (st *bitState) widest(b []byte) uint64 {
	lw := 14 + uint(st.acc>>4&(1<<escBits-1))
	if lw > 63 {
		st.bad, lw = true, 63
	}
	st.acc, st.have = st.acc>>10, st.have-10
	g := uint64(1) << lw
	for shift := uint(0); shift < lw; {
		for ; st.have <= 56 && st.k < len(b); st.k++ {
			st.acc |= uint64(b[st.k]) << st.have
			st.have += 8
		}
		if st.have == 0 { // b ends inside the gap: no coding does
			st.bad = true
			break
		}
		w := min(st.have, lw-shift)
		g |= st.acc & (1<<w - 1) << shift
		st.acc, st.have, shift = st.acc>>w, st.have-w, shift+w
	}
	return g
}

// decode fills out with the elements coded in b from st on, adding gaps up
// from prev, and returns the last. Within a word of b's end it goes on in a
// zeroed copy of what is left, which holds the rest of any coding: past the
// coding's end it decodes zeros.
func (st *bitState) decode(out []hash.Element, b []byte, prev hash.Element) hash.Element {
	for padded := false; ; {
		var i int
		i, prev = st.gaps(out, b, prev)
		if out = out[i:]; len(out) == 0 {
			return prev
		}
		switch {
		case st.k+8 <= len(b):
			prev += hash.Element(st.widest(b))
			out[0], out = prev, out[1:]
		case padded:
			return prev
		default:
			var pad [32]byte
			copy(pad[:], b[st.k:])
			b, st.base, st.k, padded = pad[:], st.base+st.k, 0, true
		}
	}
}

// decodeRecord appends the elements of the record coded at the head of b to
// dst.
func decodeRecord(dst []hash.Element, b []byte) []hash.Element {
	n, k := binary.Uvarint(b)
	dst = slices.Grow(dst, int(n))
	st := bitState{k: k}
	st.decode(dst[len(dst):len(dst)+int(n)], b, 0)
	return dst[:len(dst)+int(n)]
}

// PackedRecords is a record collection held in the records section's coding:
// every record's coding back to back, and one address a record. Both are
// chunked stores: a collection packed at once is one slab of exactly its size,
// one grown by Append allocates a chunk at a time and never copies a record it
// holds; a record's coding is contiguous either way. The zero value is an
// empty collection.
type PackedRecords struct {
	data     chunked.Store[byte]
	offsets  chunked.Store[uint32] // Len()+1 addresses once anything is stored; record i is data.Run(offsets[i], offsets[i+1])
	elements int                   // element occurrences
	top      hash.Element
}

// packLimit is the first address the uint32 offsets cannot hold: a store's
// bytes lie below it. A variable only so the tests can reach the bound
// without 4 GB of records.
var packLimit = math.MaxUint32

// SetPackLimit is for the tests of the packages that build stores: it lowers
// the bound and returns what puts it back.
func SetPackLimit(limit int) (restore func()) {
	old := packLimit
	packLimit = limit
	return func() { packLimit = old }
}

func checkPackRoom(bytes int) error {
	if bytes >= packLimit {
		return fmt.Errorf("%d bytes of records overflow the record store's 32-bit offset table (limit %d)", bytes, packLimit)
	}
	return nil
}

// fanSpans splits [0, m) into `workers` contiguous spans and calls fn(w, lo,
// hi) for each, the last on the caller's goroutine, and waits for all.
func fanSpans(m, workers int, fn func(w, lo, hi int)) {
	step := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := min(w*step, m), min((w+1)*step, m)
		if w == workers-1 {
			fn(w, lo, hi)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// Layout is a store packed from slices in two steps, for a pass that reads
// the records for more than their coding (a build's counting pass): the pass
// hands each record's size to SetSize, summing its gaps' GapBits as it reads
// them, Place sums the sizes into addresses and allocates the slab, and Code
// writes the codings into their windows. Records are sized, and spans of
// them coded, from any goroutines, each record once.
type Layout struct {
	p       PackedRecords
	offsets []uint32 // record i's size at i+1 until Place, its address after
	data    []byte
}

// NewLayout returns the layout of a store of m records, every one unsized.
func NewLayout(m int) *Layout {
	l := &Layout{}
	l.offsets = l.p.offsets.Bulk(m + 1)
	return l
}

// GapBits returns the bits a gap g — an element, or its difference from the
// one before it in its record — takes in a record's coding.
func GapBits(g uint64) int { return classBits[bits.Len64(g)] }

// SetSize sets the size of record i's coding: n elements whose gaps take
// nbits bits in all.
func (l *Layout) SetSize(i, n, nbits int) {
	// A size that does not fit its slot fails Place's byte total.
	l.offsets[i+1] = uint32(min(uvarintLen(uint64(n))+(nbits+7)/8, math.MaxUint32))
}

// Place turns the sizes into addresses and allocates the slab, exactly as
// long as the codings; elements and top are the records' occurrence count and
// largest element. It fails when the codings overflow the offset table, and
// then allocates nothing.
func (l *Layout) Place(elements int, top hash.Element) error {
	total := 0
	for _, size := range l.offsets {
		total += int(size)
	}
	if err := checkPackRoom(total); err != nil {
		return err
	}
	for i := 1; i < len(l.offsets); i++ {
		l.offsets[i] += l.offsets[i-1]
	}
	l.data = l.p.data.Bulk(total)
	l.p.elements, l.p.top = elements, top
	return nil
}

// Code codes records [lo, hi) of recs, the records sized, into their windows
// of the slab.
func (l *Layout) Code(recs []dataset.Record, lo, hi int) {
	for i := lo; i < hi; i++ {
		o := l.offsets[i : i+2]
		appendRecord(l.data[o[0]:o[0]:o[1]], recs[i])
	}
}

// Store returns the store, whole once every record is coded.
func (l *Layout) Store() PackedRecords { return l.p }

// PackRecords codes recs across up to `workers` goroutines: every record is
// measured, the offsets are the prefix sums, and each record is coded
// straight into its window of the slab (Layout). Slab and offsets are exactly
// as long as what they hold. recs is not retained. A record that is not
// strictly ascending is refused (UnsortedError, naming the first), and then
// nothing is coded.
func PackRecords(recs []dataset.Record, workers int) (PackedRecords, error) {
	m := len(recs)
	l := NewLayout(m)
	workers = max(1, min(workers, m))
	type share struct {
		elements, unsorted int // unsorted: 1 + the span's first record that is not ascending, 0 for none
		top                hash.Element
	}
	shares := make([]share, workers)
	fanSpans(m, workers, func(w, lo, hi int) {
		sh := &shares[w]
		for i := lo; i < hi; i++ {
			size, top, ascending := measure(recs[i])
			if !ascending && sh.unsorted == 0 {
				sh.unsorted = i + 1
			}
			l.offsets[i+1] = uint32(min(size, math.MaxUint32))
			sh.elements, sh.top = sh.elements+len(recs[i]), max(sh.top, top)
		}
	})
	var elements int
	var top hash.Element
	for _, sh := range shares {
		if sh.unsorted > 0 {
			return PackedRecords{}, UnsortedError{sh.unsorted - 1}
		}
		elements, top = elements+sh.elements, max(top, sh.top)
	}
	if err := l.Place(elements, top); err != nil {
		return PackedRecords{}, err
	}
	fanSpans(m, workers, func(_, lo, hi int) { l.Code(recs, lo, hi) })
	return l.p, nil
}

// Len returns the number of records.
func (p *PackedRecords) Len() int { return max(0, p.offsets.Len()-1) }

// Elements returns the number of element occurrences over all records.
func (p *PackedRecords) Elements() int { return p.elements }

// Top returns the largest element of any record (0 for none).
func (p *PackedRecords) Top() hash.Element { return p.top }

// SizeBytes returns the bytes the records take, codings and offsets: what is
// stored, not what the chunks holding it could.
func (p *PackedRecords) SizeBytes() int { return p.data.Len() + 4*p.offsets.Len() }

// CheckRoom reports whether `records` more records of `elements` element
// occurrences in all are certain to fit the offset table, taking every
// record's length and every element at ten bytes — a uvarint's longest, and
// more than an element's 73 bits, a record's padding included: the check a
// caller makes before it changes anything else for an Append.
func (p *PackedRecords) CheckRoom(records, elements int) error {
	if records == 0 {
		return nil
	}
	worst := records + elements
	if worst > math.MaxInt/(4*maxElemBytes) {
		return checkPackRoom(math.MaxInt)
	}
	return checkPackRoom(p.data.Bound(maxElemBytes * worst))
}

// push makes room for the coding, size bytes long, of one more record and
// returns it: in the last chunk if it fits there, at the head of a new one if
// not. A record that would take the store past the offset table is an error
// and leaves the store as it was.
func (p *PackedRecords) push(size int) ([]byte, error) {
	if err := checkPackRoom(p.data.Place(size) + size); err != nil {
		return nil, err
	}
	start, coding := p.data.Alloc(size)
	if p.offsets.Len() == 0 {
		p.offsets.Append(start)
	} else {
		*p.offsets.Ptr(p.Len()) = start
	}
	p.offsets.Append(start + uint32(size))
	return coding, nil
}

// Append codes rec onto the end of the store, which allocates a chunk when
// the last is full and moves nothing. rec is not retained. A record that is
// not strictly ascending is refused (UnsortedError, naming the id it would
// have had) and leaves the store as it was. A caller that must not find the
// store full halfway through a batch asks first (CheckRoom).
func (p *PackedRecords) Append(rec dataset.Record) error { return appendTo(p, rec) }

// Append32 is Append for a record of 32-bit ids, the width a builder sorts
// vocabulary ids at: it codes them as the elements they are.
func (p *PackedRecords) Append32(rec []uint32) error { return appendTo(p, rec) }

func appendTo[E id](p *PackedRecords, rec []E) error {
	size, top, ascending := measure(rec)
	if !ascending {
		return UnsortedError{p.Len()}
	}
	coding, err := p.push(size)
	if err != nil {
		return err
	}
	appendRecord(coding[:0], rec)
	p.elements, p.top = p.elements+len(rec), max(p.top, top)
	return nil
}

// UnsortedError names the first record of a collection that is not strictly
// ascending (the dataset.Record invariant).
type UnsortedError struct{ Record int }

func (e UnsortedError) Error() string {
	return fmt.Sprintf("record %d is not sorted and deduplicated", e.Record)
}

// RecordLen returns the number of elements of record i.
func (p *PackedRecords) RecordLen(i int) int {
	n, _ := binary.Uvarint(p.data.From(*p.offsets.Ptr(i)))
	return int(n)
}

// AppendRecord appends the elements of record i to dst: the allocation-free
// way to walk the store with one reused buffer. The decoder is handed the
// rest of the record's chunk, so it reads whole words past a record's end
// wherever another record follows it.
func (p *PackedRecords) AppendRecord(dst []hash.Element, i int) []hash.Element {
	return decodeRecord(dst, p.data.From(*p.offsets.Ptr(i)))
}

// Record returns a decoded copy of record i, the caller's to keep.
func (p *PackedRecords) Record(i int) dataset.Record {
	return p.AppendRecord(make([]hash.Element, 0, p.RecordLen(i)), i)
}

// All decodes every record into windows of one element slab.
func (p *PackedRecords) All() []dataset.Record {
	recs := make([]dataset.Record, p.Len())
	elems := make([]hash.Element, 0, p.elements)
	for i := range recs {
		start := len(elems)
		elems = p.AppendRecord(elems, i)
		recs[i] = elems[start:len(elems):len(elems)]
	}
	return recs
}

// Packed writes the records section of a store: the two counts and the
// codings as they are, chunk after chunk. Every record is strictly ascending:
// a store refuses any other.
func (w *Writer) Packed(p *PackedRecords) {
	w.Int(p.Len())
	w.Int(p.elements)
	for _, chunk := range p.data.Chunks() {
		w.Write(chunk)
	}
}

// Packed reads the records section into a store. This is the section's one
// validation loop — canonical codings (no class above 64, no padded uvarint,
// zero padding bits), every record strictly ascending (no zero gap after the
// first element, no gap that wraps 2⁶⁴), the declared counts met exactly —
// and the bytes it has checked are its output: no element is held decoded. A
// record is validated into one reused buffer and pushed onto the store, which
// grows a chunk at a time as the bytes arrive — chunks that start at 1 kB and
// double — so what a stream declares sizes nothing: a section cut short has
// cost under twice the records it did hold.
func (r *Reader) Packed() PackedRecords {
	m, total := r.Int(), r.Int()
	if r.err == nil && total > math.MaxInt-m {
		r.Corrupt("records section of %d records and %d elements overflows", m, total)
	}
	var p PackedRecords
	var coding []byte
	for p.Len() < m && r.err == nil {
		n := r.Int()
		if n > total-p.elements {
			r.Corrupt("record %d has %d elements, section declares %d in all", p.Len(), n, total)
			break
		}
		var last hash.Element
		coding, last = r.record(binary.AppendUvarint(coding[:0], uint64(n)), n, p.Len())
		if r.err != nil {
			break
		}
		stored, err := p.push(len(coding))
		if err != nil {
			r.Corrupt("%v", err)
			break
		}
		copy(stored, coding)
		p.elements, p.top = p.elements+n, max(p.top, last)
	}
	if r.err == nil && p.elements != total {
		r.Corrupt("records hold %d elements, section declares %d", p.elements, total)
	}
	if r.err != nil {
		return PackedRecords{}
	}
	return p
}

// record reads the bit stream of a record of n elements off the stream,
// checks it and appends its bytes to coding; it returns coding and the last
// element. The elements are decoded a few hundred at a time, by the decoder
// the store uses, straight from the reader's buffer, which is refilled
// whenever less than two words are left past the decoder: a record longer than
// the buffer streams through it. Bits a refill took early stay in the buffer
// until the record's last byte is known.
func (r *Reader) record(coding []byte, n, index int) ([]byte, hash.Element) {
	var out [256]hash.Element
	var st bitState
	var prev hash.Element
	for left := n; left > 0 && r.err == nil; {
		if r.end-r.pos-st.k < 16 {
			done := st.k - int(st.have+7)/8 // the bytes whose every bit is decoded
			coding = append(coding, r.buf[r.pos:r.pos+done]...)
			r.pos, st.k = r.pos+done, st.k-done
			r.fill(bufSize)
		}
		window := r.buf[r.pos:r.end]
		chunk := out[:min(left, len(out))]
		last := prev
		var i int
		switch {
		case len(window)-st.k >= 16:
			// Having decoded nothing, gaps refilled once: 9 bytes or more
			// are left past k, and the gap of 2⁴⁷ or more it stopped at
			// needs 3 at most.
			if i, prev = st.gaps(chunk, window, prev); i == 0 {
				prev += hash.Element(st.widest(window))
				chunk[0], i = prev, 1
			}
		case left <= 45: // the stream ends within 16 bytes and the bits held, 183 bits: 45 gaps at most
			prev, i = st.decode(chunk, window, prev), len(chunk)
			if st.end() > len(window) {
				r.Corrupt("stream ends inside a section")
			}
		default:
			r.Corrupt("stream ends inside a section")
		}
		// A zero gap repeats an element and one that wraps 2⁶⁴ descends.
		for j, e := range chunk[:i] {
			if e <= last && (j > 0 || left < n) {
				r.Corrupt("record %d is not strictly ascending", index)
				break
			}
			last = e
		}
		left -= i
	}
	switch {
	case r.err != nil:
	case st.bad:
		r.Corrupt("record %d has a gap of class above 64", index)
	case st.acc&(1<<(st.have%8)-1) != 0:
		r.Corrupt("record %d is padded with set bits", index)
	default:
		end := st.end()
		coding = append(coding, r.buf[r.pos:r.pos+end]...)
		r.pos += end
	}
	return coding, prev
}
