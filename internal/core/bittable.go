package core

import (
	"math/bits"

	"gbkmv/internal/hash"
)

// bitTable maps E_H's elements to their buffer bits. Whether an element is
// buffered is asked once or more per element occurrence by every pass of a
// build and a load, by an insert and by a query sketch, and through a Go map
// (≈ 20 ns a lookup) that question was 43 % of a build; this is an
// open-addressed table at most half full, probed linearly from a
// multiplicative hash — a multiply, a shift and, nearly always, one compare.
type bitTable struct {
	slots []bitSlot // a power of two, at least one of them empty
	shift uint      // 64 − log₂ len(slots)
}

type bitSlot struct {
	e    hash.Element
	bit1 int32 // bit + 1; 0 marks an empty slot
}

// newBitTable indexes elems, element i at bit i (the last of a repeated
// element wins).
func newBitTable(elems []hash.Element) bitTable {
	size := 2
	for size < 2*len(elems) {
		size *= 2
	}
	t := bitTable{slots: make([]bitSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	for i, e := range elems {
		j := t.home(e)
		for t.slots[j].bit1 != 0 && t.slots[j].e != e {
			j = (j + 1) & (size - 1)
		}
		t.slots[j] = bitSlot{e, int32(i + 1)}
	}
	return t
}

func (t *bitTable) home(e hash.Element) int {
	return int(uint64(e) * 0x9E3779B97F4A7C15 >> t.shift)
}

// lookup returns e's buffer bit and whether e is buffered at all.
func (t *bitTable) lookup(e hash.Element) (bit int, buffered bool) {
	for j := t.home(e); ; j = (j + 1) & (len(t.slots) - 1) {
		switch s := t.slots[j]; {
		case s.bit1 == 0:
			return 0, false
		case s.e == e:
			return int(s.bit1) - 1, true
		}
	}
}
