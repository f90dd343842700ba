package core

import "gbkmv/internal/chunked"

// bufWordBits is the width of the words every bitmap over record ids is made
// of: the bit columns, the search's marks, the counter planes.
const bufWordBits = 64

// bufferColumns is the buffer arena transposed: per buffer bit one bitmap
// over record ids, bit i of column b set exactly when record i's buffer holds
// bit b. It is the buffer half of a query — the query's columns add up to
// every record's overlap with it (countOverlaps) — and costs what the
// buffers themselves cost, |E_H| bits a record: the buffer exists so that a
// popular element takes one bit of a record instead of a 32-bit signature,
// and an inverted list of record ids per bit (which this replaces) paid the
// 32 bits straight back, three times the whole sketch on the paper's
// workload. The bit-sliced shape is COBS's, kmcp's index.
//
// The words are laid by block of 64 records: row w of the store holds word w
// of every column, |E_H| words, so derive lays one exact slab and an insert
// that starts a block Extends the store by a row, never moving the columns.
// A reader of a few columns takes them from each row together. Bits past the
// record count are zero. A zero width means there is nothing buffered.
type bufferColumns struct {
	rows  chunked.Store[uint64]
	width int // words a row: |E_H|
}

// init lays the columns for m records of `width` buffer bits, all clear.
func (c *bufferColumns) init(m, width int) {
	*c = bufferColumns{width: width}
	if width > 0 {
		c.rows.Reset(width)
		c.rows.Bulk((m + bufWordBits - 1) / bufWordBits)
	}
}

// grow makes room for m records, a row for each block of 64 they start.
func (c *bufferColumns) grow(m int) {
	if c.width > 0 {
		if more := (m+bufWordBits-1)/bufWordBits - c.rows.Len(); more > 0 {
			c.rows.Extend(more)
		}
	}
}

// block returns the row of record id's 64-record block, where mark sets its
// bits; nil when nothing is buffered.
func (c *bufferColumns) block(id int) []uint64 {
	if c.width == 0 {
		return nil
	}
	return c.rows.Row(id / bufWordBits)
}

// mark marks record id as holding bit, in the row of its block. Two
// goroutines may mark at once only in different blocks.
func mark(row []uint64, bit, id int) { row[bit] |= 1 << (uint(id) % bufWordBits) }

// rowsFrom returns the rows from w to the end of w's chunk, whole rows of
// width words: a reader walks the blocks a chunk at a time.
func (c *bufferColumns) rowsFrom(w int) []uint64 { return c.rows.From(uint32(w)) }
