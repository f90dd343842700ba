package core

import "gbkmv/internal/chunked"

// bufferArena is the flat store of every record's frequent-element buffer
// H_X: fixed-stride rows of ⌈|E_H|/8⌉ bytes in a chunked store, mirroring the
// sketch arena's philosophy for the bitmap half of the signature. Record i's
// buffer is row i, bit b of it bit b%8 of byte b/8. A row holds what the
// budget charges a record for its buffer (r/8 bytes, |E_H| ≤ r) and no
// padding to a word. Against a []*bitmap.Bitmap (one heap object + pointer
// per record) it buys the write and query paths contiguous memory — the
// buffer overlap against a query walks one cache stream and SizeBytes is
// O(1) — and lets derive's workers fill disjoint record slots concurrently
// without allocation; derive lays the rows out as one slab, inserts add rows
// a chunk at a time.
//
// A zero stride means the index buffers no element (E_H is empty); every
// per-record accessor is then a no-op.
type bufferArena struct {
	bytes  chunked.Store[byte]
	built  []byte // the rows derive laid out, bytes' slab: what a search reads without a call
	stride int    // bytes per record, ⌈|E_H|/8⌉; 0 without buffers
}

// init sizes the arena for m records of `bits` buffer bits each, all clear.
func (a *bufferArena) init(m, bits int) {
	a.stride = (max(bits, 0) + 7) / 8
	if a.stride > 0 {
		a.bytes.Reset(a.stride)
		a.built = a.bytes.Bulk(m)
	}
}

// record returns record i's buffer row. The slice aliases the arena.
func (a *bufferArena) record(i int) []byte {
	if row, ok := a.builtRow(i); ok {
		return row
	}
	return a.bytes.Row(i)
}

// builtRow is record for the rows derive laid out, small enough to inline
// into the per-candidate loops of a search, which read little else.
func (a *bufferArena) builtRow(i int) ([]byte, bool) {
	lo := i * a.stride
	if lo >= len(a.built) {
		return nil, false
	}
	return a.built[lo : lo+a.stride], true
}

// set sets bit `bit` of record i's buffer.
func (a *bufferArena) set(i, bit int) {
	a.record(i)[bit/8] |= 1 << (uint(bit) % 8)
}

// grow appends n zeroed record slots (no-op without buffers).
func (a *bufferArena) grow(n int) {
	if a.stride > 0 {
		a.bytes.Extend(n)
	}
}

// sizeBytes returns the memory footprint of the bit storage, O(1).
func (a *bufferArena) sizeBytes() int { return a.bytes.Len() * a.stride }
