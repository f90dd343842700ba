// Package bitmap implements a fixed-capacity bitset used as the
// high-frequency-element buffer of the GB-KMV sketch (Section IV-A(3) of the
// paper). Each record keeps one bit per buffered element; the intersection
// |H_Q ∩ H_X| is a word-wise AND plus popcount, which is what makes the exact
// part of the GB-KMV estimator cheap.
package bitmap

import (
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
// raw word slice, which is how the core index intersects a query bitmap
// against one record's slot of its flat buffer arena without materializing
// a Bitmap per record. Only the common word prefix is compared.
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

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
