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
// its length, its first element and the strictly positive deltas between
// consecutive elements, all canonical uvarints; a records section is the
// record count, the element count and then every record's coding back to
// back. Ids handed out by a vocabulary are dense, so the gaps of a sorted
// record sit near their entropy: ≈ 1.33 bytes an element occurrence on the
// corpora here, against 8 for a hash.Element.
//
// PackedRecords keeps a collection in that coding in memory — what a bulk
// build holds of its records from the scanner on, what the GB-KMV index
// retains of them, and byte for byte what its snapshot writes for them — and
// Writer.Packed and Reader.Packed are the same three functions (measure,
// appendRecord, decodeRecord) around a store or a stream.

// uvarintLen is the length of v's canonical uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// id is what a record to code holds: elements, or the 32-bit vocabulary ids
// a builder sorts them as.
type id interface{ ~uint32 | ~uint64 }

// measure returns the length of rec's coding, rec's largest element and
// whether rec is strictly ascending (the dataset.Record invariant). One that
// is not still codes and decodes to itself — deltas wrap — but no loader
// takes it: stores remember it and refuse to be written.
func measure[E id](rec []E) (size int, top hash.Element, ascending bool) {
	size, ascending = uvarintLen(uint64(len(rec))), true
	var prev E
	for j, e := range rec {
		if j > 0 && e <= prev {
			ascending = false
		}
		size += uvarintLen(uint64(e) - uint64(prev))
		prev, top = e, max(top, hash.Element(e))
	}
	return size, top, ascending
}

// appendRecord appends rec's coding to dst.
func appendRecord[E id](dst []byte, rec []E) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec)))
	var prev E
	for _, e := range rec {
		dst = binary.AppendUvarint(dst, uint64(e)-uint64(prev))
		prev = e
	}
	return dst
}

// uvarint decodes the uvarint at b[k:] and returns the index past it. b is a
// store's own bytes — written by appendRecord or validated by Reader.Packed —
// so a whole uvarint is there. Nearly every gap of a dense-id record that
// does not fit one byte fits two, decided before binary.Uvarint's loop.
func uvarint(b []byte, k int) (uint64, int) {
	x, y := b[k], b[k+1]
	if y < 0x80 {
		return uint64(x&0x7f) | uint64(y)<<7, k + 2
	}
	v, w := binary.Uvarint(b[k:])
	return v, k + w
}

// decodeRecord appends the elements of the record coded at the head of b to
// dst. Nine gaps in ten are one byte: a load, a compare and an add.
func decodeRecord(dst []hash.Element, b []byte) []hash.Element {
	n, k := binary.Uvarint(b)
	dst = slices.Grow(dst, int(n))
	out := dst[len(dst) : len(dst)+int(n)]
	prev := hash.Element(0)
	for i := range out {
		d := uint64(b[k])
		if d < 0x80 {
			k++
		} else {
			d, k = uvarint(b, k)
		}
		prev += hash.Element(d)
		out[i] = prev
	}
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
	unsorted int // 1 + the first record that is not strictly ascending; 0 when all are
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

// PackRecords codes recs across up to `workers` goroutines: every record is
// measured, the offsets are the prefix sums, and each record is coded
// straight into its window of the slab. Slab and offsets are exactly as long
// as what they hold. recs is not retained.
func PackRecords(recs []dataset.Record, workers int) (PackedRecords, error) {
	m := len(recs)
	var p PackedRecords
	offsets := p.offsets.Bulk(m + 1)
	workers = max(1, min(workers, m))
	type share struct {
		bytes, elements, unsorted int
		top                       hash.Element
	}
	shares := make([]share, workers)
	fanSpans(m, workers, func(w, lo, hi int) {
		sh := &shares[w]
		for i := lo; i < hi; i++ {
			size, top, ascending := measure(recs[i])
			if !ascending && sh.unsorted == 0 {
				sh.unsorted = i + 1
			}
			// A size that does not fit its slot fails the byte total below.
			offsets[i+1] = uint32(size)
			sh.bytes, sh.elements, sh.top = sh.bytes+size, sh.elements+len(recs[i]), max(sh.top, top)
		}
	})
	total := 0
	for _, sh := range shares {
		total += sh.bytes
		p.elements, p.top = p.elements+sh.elements, max(p.top, sh.top)
		if p.unsorted == 0 {
			p.unsorted = sh.unsorted
		}
	}
	if err := checkPackRoom(total); err != nil {
		return PackedRecords{}, err
	}
	for i := 0; i < m; i++ {
		offsets[i+1] += offsets[i]
	}
	data := p.data.Bulk(total)
	fanSpans(m, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			appendRecord(data[offsets[i]:offsets[i]:offsets[i+1]], recs[i])
		}
	})
	return p, nil
}

// Len returns the number of records.
func (p *PackedRecords) Len() int { return max(0, p.offsets.Len()-1) }

// coded returns record i's coding. The slice aliases the store.
func (p *PackedRecords) coded(i int) []byte {
	return p.data.Run(p.offsets.Pair(i))
}

// Elements returns the number of element occurrences over all records.
func (p *PackedRecords) Elements() int { return p.elements }

// Top returns the largest element of any record (0 for none).
func (p *PackedRecords) Top() hash.Element { return p.top }

// SizeBytes returns the bytes the records take, codings and offsets: what is
// stored, not what the chunks holding it could.
func (p *PackedRecords) SizeBytes() int { return p.data.Len() + 4*p.offsets.Len() }

// CheckRoom reports whether `records` more records of `elements` element
// occurrences in all are certain to fit the offset table, taking every
// uvarint at its longest: the check a caller makes before it changes anything
// else for an Append.
func (p *PackedRecords) CheckRoom(records, elements int) error {
	if records == 0 {
		return nil
	}
	worst := records + elements
	if worst > math.MaxInt/(4*binary.MaxVarintLen64) {
		return checkPackRoom(math.MaxInt)
	}
	return checkPackRoom(p.data.Bound(binary.MaxVarintLen64 * worst))
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
// the last is full and moves nothing. rec is not retained. A caller that must
// not find the store full halfway through a batch asks first (CheckRoom).
func (p *PackedRecords) Append(rec dataset.Record) error { return appendTo(p, rec) }

// Append32 is Append for a record of 32-bit ids, the width a builder sorts
// vocabulary ids at: it codes them as the elements they are.
func (p *PackedRecords) Append32(rec []uint32) error { return appendTo(p, rec) }

func appendTo[E id](p *PackedRecords, rec []E) error {
	size, top, ascending := measure(rec)
	coding, err := p.push(size)
	if err != nil {
		return err
	}
	if !ascending && p.unsorted == 0 {
		p.unsorted = p.Len()
	}
	appendRecord(coding[:0], rec)
	p.elements, p.top = p.elements+len(rec), max(p.top, top)
	return nil
}

// CheckSorted names the first record that is not strictly ascending (the
// dataset.Record invariant), or returns nil: the store noted it as it coded.
func (p *PackedRecords) CheckSorted() error {
	if p.unsorted > 0 {
		return fmt.Errorf("record %d is not sorted and deduplicated", p.unsorted-1)
	}
	return nil
}

// RecordLen returns the number of elements of record i.
func (p *PackedRecords) RecordLen(i int) int {
	n, _ := binary.Uvarint(p.data.From(*p.offsets.Ptr(i)))
	return int(n)
}

// AppendRecord appends the elements of record i to dst: the allocation-free
// way to walk the store with one reused buffer.
func (p *PackedRecords) AppendRecord(dst []hash.Element, i int) []hash.Element {
	return decodeRecord(dst, p.coded(i))
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
// codings as they are, chunk after chunk.
func (w *Writer) Packed(p *PackedRecords) {
	if err := p.CheckSorted(); err != nil {
		w.Fail(fmt.Errorf("snapfmt: %w", err))
		return
	}
	w.Int(p.Len())
	w.Int(p.elements)
	for _, chunk := range p.data.Chunks() {
		w.Write(chunk)
	}
}

// Packed reads the records section into a store. This is the section's one
// validation loop — canonical uvarints, every record strictly ascending, the
// declared counts met exactly — and the bytes it has checked are its output:
// no element is held decoded. A record is validated into one reused buffer and
// pushed onto the store, which grows a chunk at a time as the bytes arrive —
// chunks that start at 1 kB and double — so what a stream declares sizes
// nothing: a section cut short has cost under twice the records it did hold.
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
		coding = binary.AppendUvarint(coding[:0], uint64(n))
		prev := hash.Element(0)
		for j := 0; j < n && r.err == nil; j++ {
			d := r.Uvarint()
			// A zero delta repeats an element and one that wraps 2⁶⁴ descends.
			if e := prev + hash.Element(d); j > 0 && e <= prev {
				r.Corrupt("record %d is not strictly ascending", p.Len())
			} else {
				prev = e
			}
			coding = binary.AppendUvarint(coding, d)
		}
		if r.err != nil {
			break
		}
		stored, err := p.push(len(coding))
		if err != nil {
			r.Corrupt("%v", err)
			break
		}
		copy(stored, coding)
		p.elements, p.top = p.elements+n, max(p.top, prev)
	}
	if r.err == nil && p.elements != total {
		r.Corrupt("records hold %d elements, section declares %d", p.elements, total)
	}
	if r.err != nil {
		return PackedRecords{}
	}
	return p
}
