package core

import "gbkmv/internal/chunked"

const bufWordBits = 64

// bufferArena is the flat store of every record's frequent-element buffer
// H_X: fixed-stride rows of words in a chunked store, mirroring the sketch
// arena's philosophy for the bitmap half of the signature. Record i's buffer
// is row i. Against a []*bitmap.Bitmap (one heap object + pointer per record)
// it buys the write and query paths contiguous memory — AndCount against a
// query walks one cache stream and SizeBytes is O(1) — and lets derive's
// workers fill disjoint record slots concurrently without allocation; derive
// lays the rows out as one slab, inserts add rows a chunk at a time.
//
// A zero stride means the index buffers no element (E_H is empty); every
// per-record accessor is then a no-op.
type bufferArena struct {
	words  chunked.Store[uint64]
	built  []uint64 // the rows derive laid out, words' slab: what a search reads without a call
	stride int      // words per record, ⌈|E_H|/64⌉; 0 without buffers
}

// init sizes the arena for m records of `bits` buffer bits each, all clear.
func (a *bufferArena) init(m, bits int) {
	a.stride = (max(bits, 0) + bufWordBits - 1) / bufWordBits
	if a.stride > 0 {
		a.words.Reset(a.stride)
		a.built = a.words.Bulk(m)
	}
}

// record returns record i's buffer words. The slice aliases the arena.
func (a *bufferArena) record(i int) []uint64 {
	if row, ok := a.builtRow(i); ok {
		return row
	}
	return a.words.Row(i)
}

// builtRow is record for the rows derive laid out, small enough to inline
// into the per-candidate loops of a search, which read little else.
func (a *bufferArena) builtRow(i int) ([]uint64, bool) {
	lo := i * a.stride
	if lo >= len(a.built) {
		return nil, false
	}
	return a.built[lo : lo+a.stride], true
}

// set sets bit `bit` of record i's buffer.
func (a *bufferArena) set(i, bit int) {
	a.record(i)[bit/bufWordBits] |= 1 << (uint(bit) % bufWordBits)
}

// grow appends n zeroed record slots (no-op without buffers).
func (a *bufferArena) grow(n int) {
	if a.stride > 0 {
		a.words.Extend(n)
	}
}

// sizeBytes returns the memory footprint of the bit storage, O(1).
func (a *bufferArena) sizeBytes() int { return a.words.Len() * a.stride * 8 }
