// Package chunked is the one growth rule of the per-record stores an insert
// feeds — the sketch arena, the packed records, the buffer rows: a store
// grows by allocating a chunk (64 kB, once it holds that much) and never
// moves what it already holds. A slice grown by append copies itself every
// 1.25× and so allocates four times what it ends up storing; a Store
// allocates what it stores and at most a chunk of slack.
package chunked

import (
	"math/bits"
	"unsafe"
)

// chunkBytes is the size of a growth chunk, whatever it stores. Measured on
// serve-write (DESIGN.md "One growth rule") at 16 kB and 64 kB: the bytes an
// insert allocates are the same to 1 %, so the choice is what a run that does
// not fit a chunk's tail leaves empty there — the fewer the longer the chunk:
// under 1 % at 100-key runs, a tenth at 2 000-key ones.
const chunkBytes = 64 << 10

// smallest is where a store's chunks start out, as a shift of a whole one:
// 1 kB, doubling chunk by chunk — 1, 1, 2, 4 … 32 kB, a whole chunk's worth of
// addresses between them — so a store that never comes to 64 kB does not cost
// 64 kB, and one loaded from a stream costs what the stream backs.
const smallest = 6

// Store is an append-only sequence of units of T — one element, or a row of
// `stride` elements — in chunks. Units have addresses: a bulk-built slab
// (Bulk) takes [0, n) in one allocation of exactly its size, and the chunks
// after it the addresses that follow, first the small ones and then a slot of
// 1<<shift units each, so unit a is found by a compare and a shift, never a
// search. Stores used by row (Extend, Append, Row, Ptr) have dense addresses,
// the row numbers. Stores used by run (Alloc, Run) keep each run contiguous: a
// run that does not fit the last chunk starts the next that holds it, a run
// longer than a whole chunk gets a chunk of its own exact size, which takes
// the address slots it spans, and the caller keeps the start addresses. The
// zero value is an empty store of single elements.
type Store[T any] struct {
	// chunks[0] is the bulk slab (nil without one), chunks[1..small] the small
	// chunks and chunks[small+q] slot q ≥ 1: a chunk, or nil where no run went
	// or the chunk before spans the slot. len is what a chunk holds.
	chunks [][]T
	bulk   []T // chunks[0] again, a load nearer to the reads of a store that never grew
	tail       // of chunks[last], the chunk being filled
	last   int
	n0     uint32 // units the bulk slab addresses
	shift  uint8  // log2 of the units of a whole chunk
	least  uint8  // log2 of the units of the smallest
	small  int    // how many chunks are smaller than whole
	stride int
	n      int // units stored
}

// tail is where a chunk stands, in units: what it holds, what it has room for
// and how many it can address from its start. n more fit while fill < reach
// and fill+n ≤ room.
type tail struct{ fill, room, reach int }

func (t tail) fits(n int) bool { return t.fill < t.reach && t.fill+n <= t.room }

// Reset empties the store and makes its unit a row of stride elements.
func (s *Store[T]) Reset(stride int) {
	var zero T
	whole := max(1, chunkBytes/(stride*int(unsafe.Sizeof(zero))))
	shift := uint8(bits.Len(uint(whole)) - 1)
	least := max(shift, smallest) - smallest
	*s = Store[T]{chunks: make([][]T, 1, 16), shift: shift, least: least, small: int(shift-least) + 1, stride: stride}
}

// Bulk empties the store and gives it n zeroed units in one slab of exactly
// that size, which it returns for the caller to fill.
func (s *Store[T]) Bulk(n int) []T {
	s.Reset(max(1, s.stride))
	s.bulk, s.n0, s.n, s.tail = make([]T, n*s.stride), uint32(n), n, tail{n, n, n}
	s.chunks[0] = s.bulk
	return s.bulk
}

// Slab returns what the bulk slab holds, units [0, len): From and Run for the
// addresses there, without the call, for the reads a search makes per record.
func (s *Store[T]) Slab() []T { return s.bulk }

// Len returns the number of units stored.
func (s *Store[T]) Len() int { return s.n }

// Chunks returns what the store holds in address order, a slice a chunk
// (some are empty). The slices alias the store.
func (s *Store[T]) Chunks() [][]T { return s.chunks }

// From returns the storage from unit a to the end of what its chunk holds.
func (s *Store[T]) From(a uint32) []T {
	if a < s.n0 {
		return s.bulk[int(a)*s.stride:]
	}
	return s.grown(a - s.n0)
}

// grown is From for the j-th address past the bulk slab.
func (s *Store[T]) grown(j uint32) []T {
	if q := j >> s.shift; q > 0 {
		return s.chunks[s.small+int(q)][int(j&(1<<s.shift-1))*s.stride:]
	}
	// The first slot's addresses: small chunk k ≥ 2 starts where its own
	// span ends, the two before it at 0 and at the smallest span.
	k := 1
	if m := j >> s.least; m > 0 {
		k += bits.Len32(m)
		j -= 1 << (int(s.least) + k - 2)
	}
	return s.chunks[k][int(j)*s.stride:]
}

// Run returns the run that starts at address start, given the address end
// where it ends or the next run starts: the two differ when the next run went
// to a new chunk, and then this one is the rest of its chunk.
func (s *Store[T]) Run(start, end uint32) []T {
	if start == end {
		return nil // an empty run may lie at the end of the bulk slab, which is no address of it
	}
	c := s.From(start)
	return c[:min(int(end-start), len(c))]
}

// Row returns row i.
func (s *Store[T]) Row(i int) []T { return s.From(uint32(i))[:s.stride] }

// Ptr returns the address of element i of a store of single elements.
func (s *Store[T]) Ptr(i int) *T { return &s.From(uint32(i))[0] }

// Pair returns elements i and i+1 of a store of single elements — the two
// addresses that bound run i of another store — which lie side by side unless
// a chunk ends between them.
func (s *Store[T]) Pair(i int) (T, T) {
	if pair := s.From(uint32(i)); len(pair) > 1 {
		return pair[0], pair[1]
	}
	return *s.Ptr(i), *s.Ptr(i + 1)
}

// span returns the units chunk k addresses: what it holds at the most, unless
// it is one run longer than a whole chunk.
func (s *Store[T]) span(k int) int {
	switch {
	case k == 0:
		return int(s.n0)
	case k > s.small:
		return 1 << s.shift
	}
	return 1 << (int(s.least) + max(k-2, 0))
}

// address returns the address of unit off of chunk k.
func (s *Store[T]) address(k, off int) int {
	switch {
	case k == 0:
		return off
	case k == 1:
		return int(s.n0) + off
	case k > s.small:
		return int(s.n0) + (k-s.small)<<s.shift + off
	}
	return int(s.n0) + s.span(k) + off
}

// at returns where chunk k stands.
func (s *Store[T]) at(k int) tail {
	return tail{len(s.chunks[k]) / s.stride, cap(s.chunks[k]) / s.stride, s.span(k)}
}

// hold sets what chunk k holds.
func (s *Store[T]) hold(k int, chunk []T) {
	if s.chunks[k] = chunk; k == 0 {
		s.bulk = chunk
	}
}

// End returns the address past everything stored.
func (s *Store[T]) End() int {
	if s.chunks == nil {
		return 0
	}
	return s.address(s.last, s.fill)
}

// Bound returns an address that one or more runs of n units in all, however
// they are cut, stay below: the check a caller makes before a batch it must
// not find out about halfway. Counted from the next new chunk, a run takes
// under four times its length in addresses: what it leaves of the chunk it
// does not fit, the small chunks it passes over (each half the next, the last
// shorter than the run) and what a chunk of its own rounds up to.
func (s *Store[T]) Bound(n int) int {
	if s.chunks == nil {
		return 4 * n
	}
	return s.address(len(s.chunks), 0) + 4*n
}

// next returns the chunk a run of n units opens: the first past the last that
// addresses as much, or a whole one.
func (s *Store[T]) next(n int) int {
	k := max(1, len(s.chunks))
	for k <= s.small && s.span(k) < n {
		k++
	}
	return k
}

// Place returns the address Alloc(n) would return, which Alloc's caller
// checks against what its address table can hold.
func (s *Store[T]) Place(n int) int {
	if s.chunks == nil {
		s.Reset(1)
	}
	if s.fits(n) {
		return s.End()
	}
	return s.address(s.next(n), 0)
}

// open adds the chunk a run of n units goes to, of the size its place among
// the chunks gives it or of n units if that is more, and the slots it spans
// beyond its first.
func (s *Store[T]) open(n int) {
	if s.chunks == nil {
		s.Reset(1)
	}
	s.last = s.next(n)
	for len(s.chunks) < s.last {
		s.chunks = append(s.chunks, nil) // small chunks the run passes over
	}
	size := max(n, s.span(s.last))
	s.tail = tail{0, size, s.span(s.last)}
	s.chunks = append(s.chunks, make([]T, 0, size*s.stride))
	for spanned := (size - 1) >> s.shift; spanned > 0; spanned-- {
		s.chunks = append(s.chunks, nil)
	}
}

// take adds n units to the chunk being filled, which has the room.
func (s *Store[T]) take(n int) []T {
	c := s.chunks[s.last]
	c = c[:len(c)+n*s.stride]
	s.hold(s.last, c)
	s.fill += n
	s.n += n
	return c
}

// Alloc adds n contiguous units — zero, or what a compaction left there — and
// returns their address and storage.
func (s *Store[T]) Alloc(n int) (uint32, []T) {
	if !s.fits(n) {
		s.open(n)
	}
	addr := s.address(s.last, s.fill)
	c := s.take(n)
	return uint32(addr), c[len(c)-n*s.stride:]
}

// Extend adds n zeroed units, filling the last chunk before it opens another.
// For stores that are never compacted: what lies past a chunk's length is
// zero only as allocated.
func (s *Store[T]) Extend(n int) {
	for n > 0 {
		if !s.fits(1) {
			s.open(1)
		}
		some := min(n, min(s.room, s.reach)-s.fill)
		s.take(some)
		n -= some
	}
}

// Append adds one element to a store of single elements.
func (s *Store[T]) Append(v T) {
	if !s.fits(1) {
		s.open(1)
	}
	c := s.take(1)
	c[len(c)-1] = v
}

// Compactor rewrites a store of runs in place, front to back: the caller
// reads each run (Run, with the addresses it kept) and Puts what stays of it,
// never more than it read, in the order of the addresses.
type Compactor[T any] struct {
	s    *Store[T]
	tail     // of chunk k, the one being written
	k, n int // and the units put so far
	into []T // chunk k, all of it
	base int // and the address of its start
}

// Compact starts a rewrite at the front of the store, which holds something.
func (s *Store[T]) Compact() Compactor[T] {
	c := Compactor[T]{s: s}
	c.enter(0)
	return c
}

// enter moves the write to the start of chunk k.
func (c *Compactor[T]) enter(k int) {
	c.k, c.tail, c.base = k, c.s.at(k), c.s.address(k, 0)
	c.fill, c.into = 0, c.s.chunks[k][:cap(c.s.chunks[k])]
}

// Put stores run, a prefix of the next run read, and returns its new address.
// The write never passes the read: a run that fits where it was read fits at
// or before it, and a chunk's length is cut only once the write leaves it,
// when the read has.
func (c *Compactor[T]) Put(run []T) uint32 {
	for !c.fits(len(run)) {
		c.s.hold(c.k, c.into[:c.fill])
		k := c.k + 1
		for c.s.chunks[k] == nil {
			k++
		}
		c.enter(k)
	}
	copy(c.into[c.fill:], run)
	addr := c.base + c.fill
	c.fill += len(run)
	c.n += len(run)
	return uint32(addr)
}

// Done ends the rewrite: the chunks past the last one written are released.
// It returns the address past what is stored.
func (c *Compactor[T]) Done() uint32 {
	s := c.s
	s.hold(c.k, c.into[:c.fill])
	keep := c.k + 1
	for keep < len(s.chunks) && s.chunks[keep] == nil {
		keep++ // the slots the last chunk spans stay with it
	}
	clear(s.chunks[keep:])
	s.chunks, s.last, s.tail, s.n = s.chunks[:keep], c.k, c.tail, c.n
	return uint32(s.End())
}
