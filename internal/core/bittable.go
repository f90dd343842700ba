package core

import (
	"math/bits"

	"gbkmv/internal/hash"
)

// elemTable maps elements to small non-negative ints: an open-addressed
// table probed linearly from a multiplicative hash — a multiply, a shift
// and, nearly always, one compare. It holds E_H's buffer bits (bitTable) and
// the counter positions of sparse ids (elemCounters); through a Go map
// (≈ 20 ns a lookup) the first was once 43 % of a build.
type elemTable struct {
	slots []elemSlot // a power of two, at least a quarter of them empty
	shift uint       // 64 − log₂ len(slots)
	used  int
}

type elemSlot struct {
	e  hash.Element
	v1 int32 // the element's value + 1; 0 marks an empty slot
}

// newElemTable returns an empty table of `slots` slots, a power of two.
func newElemTable(slots int) elemTable {
	return elemTable{slots: make([]elemSlot, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

// find returns the slot holding e or, when none does, the empty slot where
// e belongs.
func (t *elemTable) find(e hash.Element) int {
	mask := len(t.slots) - 1
	j := int(uint64(e) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.slots[j].v1 != 0 && t.slots[j].e != e {
		j = (j + 1) & mask
	}
	return j
}

// lookup returns e's value and whether e is in the table.
func (t *elemTable) lookup(e hash.Element) (v int, ok bool) {
	s := t.slots[t.find(e)]
	return int(s.v1) - 1, s.v1 != 0
}

// set gives e the value v, doubling the table first when one more element
// would fill more than three quarters of it.
func (t *elemTable) set(e hash.Element, v int) {
	j := t.find(e)
	if t.slots[j].v1 == 0 {
		if 4*(t.used+1) > 3*len(t.slots) {
			old := t.slots
			*t = newElemTable(2 * len(old))
			for _, s := range old {
				if s.v1 != 0 {
					t.slots[t.find(s.e)] = s
					t.used++
				}
			}
			j = t.find(e)
		}
		t.used++
	}
	t.slots[j] = elemSlot{e, int32(v + 1)}
}

// bitTable maps E_H's elements to their buffer bits. An insert and a query
// sketch ask it once per element occurrence, mostly of elements it does not
// hold, so it is kept at most half full: a miss ends at the first empty slot.
type bitTable struct{ elemTable }

// newBitTable indexes elems, element i at bit i (the last of a repeated
// element wins).
func newBitTable(elems []hash.Element) bitTable {
	size := 2
	for size < 2*len(elems) {
		size *= 2
	}
	t := bitTable{newElemTable(size)}
	for i, e := range elems {
		t.set(e, i)
	}
	return t
}
