// Package bitmap implements a fixed-capacity bitset used as the
// high-frequency-element buffer of the GB-KMV sketch (Section IV-A(3) of the
// paper). Each record keeps one bit per buffered element; the intersection
// |H_Q ∩ H_X| is a word-wise AND plus popcount, which is what makes the exact
// part of the GB-KMV estimator cheap.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-size bitset. The zero value is an empty bitmap of
// capacity 0; use New to allocate capacity.
type Bitmap struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a bitmap able to hold n bits, all cleared.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (b *Bitmap) Len() int { return b.n }

// Words returns the number of 64-bit words backing the bitmap.
func (b *Bitmap) Words() int { return len(b.words) }

// Word returns the i-th backing word; with Words it supports allocation-free
// set-bit iteration.
func (b *Bitmap) Word(i int) uint64 { return b.words[i] }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: Get(%d) out of range [0,%d)", i, b.n))
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCountWords returns the number of positions set both in b and in the
// raw word slice, without materializing a Bitmap for it. Only the common
// word prefix is compared.
func (b *Bitmap) AndCountWords(words []uint64) int {
	n := len(b.words)
	if len(words) < n {
		n = len(words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b.words[i] & words[i])
	}
	return c
}

// AndCountBytes returns the number of positions set both in b and in row,
// bit i of row being bit i%8 of row[i/8]: how the core index intersects a
// query bitmap against one record's row of its byte-strided buffer arena.
// Each whole 8 bytes of row is one little-endian load; a partial last word is
// the 8-byte load that ends where row does, shifted down, and only a row
// shorter than 8 bytes is assembled byte by byte. Only the common prefix is
// compared.
func (b *Bitmap) AndCountBytes(row []byte) int {
	n := min(len(row), 8*len(b.words))
	c, i := 0, 0
	for ; i+8 <= n; i += 8 {
		c += bits.OnesCount64(b.words[i/8] & binary.LittleEndian.Uint64(row[i:]))
	}
	if tail := n - i; tail > 0 {
		var w uint64
		if n >= 8 {
			w = binary.LittleEndian.Uint64(row[n-8:]) >> (64 - 8*tail)
		} else {
			for j := n - 1; j >= 0; j-- {
				w = w<<8 | uint64(row[j])
			}
		}
		c += bits.OnesCount64(b.words[i/8] & w)
	}
	return c
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
