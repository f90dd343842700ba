package core

import "math/bits"

// bufferColumns is the buffer arena transposed: per buffer bit one bitmap
// over record ids, bit i of column b set exactly when record i's buffer holds
// bit b. It is the candidate generator of the buffer half of a query — the
// records sharing a buffered element with it are the OR of its columns — and
// costs what the buffers themselves cost, |E_H| bits a record: the buffer
// exists so that a popular element takes one bit of a record instead of a
// 32-bit signature, and an inverted list of record ids per bit (which this
// replaces) paid the 32 bits straight back, three times the whole sketch on
// the paper's workload. The bit-sliced shape is COBS's, kmcp's index.
//
// Columns share one word store with a fixed stride, the capacity in records
// over 64; rows past the record count are zero. A zero stride means there is
// nothing buffered.
type bufferColumns struct {
	words  []uint64
	stride int // words per column
}

// columnRoom is the record capacity columns are given for m records: an
// eighth of headroom, as append growth would leave a list, so that inserts
// re-stride once per eighth of growth and not once per 64 records.
func columnRoom(m int) int { return m + m/8 + bufWordBits }

// init sizes the columns for m records (and their headroom) of `bits` buffer
// bits, all clear.
func (c *bufferColumns) init(m, bits int) {
	c.stride, c.words = 0, nil
	if bits > 0 {
		c.stride = (columnRoom(m) + bufWordBits - 1) / bufWordBits
		c.words = make([]uint64, bits*c.stride)
	}
}

// grow makes room for m records, re-striding every column into a wider store
// when the capacity is exceeded.
func (c *bufferColumns) grow(m int) {
	if c.stride == 0 || m <= c.stride*bufWordBits {
		return
	}
	old, oldStride := c.words, c.stride
	c.init(m, len(old)/oldStride)
	for bit := 0; bit*oldStride < len(old); bit++ {
		copy(c.words[bit*c.stride:], old[bit*oldStride:(bit+1)*oldStride])
	}
}

// set marks record id as holding bit. Two goroutines may set bits at once
// only for ids in different 64-record blocks.
func (c *bufferColumns) set(bit, id int) {
	c.words[bit*c.stride+id/bufWordBits] |= 1 << (uint(id) % bufWordBits)
}

// orInto ORs column bit into dst, which covers ⌈m/64⌉ ≤ stride words.
func (c *bufferColumns) orInto(dst []uint64, bit int) {
	for i, w := range c.words[bit*c.stride:][:len(dst)] {
		dst[i] |= w
	}
}

// count returns the number of records holding bit.
func (c *bufferColumns) count(bit int) int {
	n := 0
	for _, w := range c.words[bit*c.stride : (bit+1)*c.stride] {
		n += bits.OnesCount64(w)
	}
	return n
}
