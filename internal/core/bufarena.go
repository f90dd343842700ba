package core

const bufWordBits = 64

// bufferArena is the flat store of every record's frequent-element buffer
// H_X: one shared []uint64 with a fixed per-record stride, mirroring the
// sketch arena's philosophy for the bitmap half of the signature. Record i's
// buffer occupies words[i*stride : (i+1)*stride]. Replacing the previous
// []*bitmap.Bitmap (one heap object + pointer per record) buys the write and
// query paths contiguous memory — AndCount against a query walks one cache
// stream and SizeBytes is O(1) — and lets derive's workers fill disjoint
// record slots concurrently without allocation.
//
// A zero stride means the index buffers no element (E_H is empty); every
// per-record accessor is then a no-op.
type bufferArena struct {
	words  []uint64
	stride int // words per record, ⌈|E_H|/64⌉; 0 without buffers
}

// init sizes the arena for m records of `bits` buffer bits each, reusing the
// backing array when it fits. All bits are cleared.
func (a *bufferArena) init(m, bits int) {
	if bits <= 0 {
		a.stride = 0
		a.words = a.words[:0]
		return
	}
	a.stride = (bits + bufWordBits - 1) / bufWordBits
	n := m * a.stride
	if cap(a.words) < n {
		a.words = make([]uint64, n)
		return
	}
	a.words = a.words[:n]
	clear(a.words)
}

// record returns record i's buffer words. The slice aliases the arena.
func (a *bufferArena) record(i int) []uint64 {
	return a.words[i*a.stride : (i+1)*a.stride]
}

// set sets bit `bit` of record i's buffer.
func (a *bufferArena) set(i, bit int) {
	a.words[i*a.stride+bit/bufWordBits] |= 1 << (uint(bit) % bufWordBits)
}

// grow appends n zeroed record slots (no-op without buffers). Batch
// inserts pre-size once for the whole batch rather than once per record.
func (a *bufferArena) grow(n int) {
	if a.stride == 0 {
		return
	}
	a.words = append(a.words, make([]uint64, n*a.stride)...)
}

// sizeBytes returns the memory footprint of the bit storage, O(1).
func (a *bufferArena) sizeBytes() int { return len(a.words) * 8 }
