package core

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"

	"gbkmv/internal/chunked"
	"gbkmv/internal/hash"
)

// postingLists is the inverted index over the G-KMV keys (Section IV-B): per
// kept element, the ascending ids of the records whose sketch holds it. An
// element finds its list number in the index and the number its header. A
// list is two parts:
//
//	run   what derive laid out, a window of the one exactly sized slab it
//	      filled, all lists back to back
//	tail  what inserts added since: its first id in the header, the rest in a
//	      chain of blocks of 4, 4, 8, 8, 16 … up to 256 int32 slots, each
//	      block's last slot the address of the next, all of them Alloc'd from
//	      one chunked store (a block never straddles a chunk)
//
// so an insert writes its id into the header, the list's last block or a
// block it allocates, and copies nothing; a list no insert reached is a plain
// slab run.
// A threshold shrink drops whole lists (filter): their headers go to a free
// list of numbers, the tail store is compacted in place, and once under half
// of the slab is live the slab is given up and its lists re-laid as tails.
type postingLists struct {
	// index is an open-addressed table of list numbers + 1 (0 marks an empty
	// slot), probed linearly from elemTable's multiplicative hash of the
	// element, which it compares in the header a slot names. It holds the
	// element where it already is, so a slot is 4 bytes, not elemTable's 16:
	// TestSnapshotAllocs' τ = 1 engine (two segments of 27 000 lists each)
	// holds 6.23 MB loaded, 6.56 with the lists in Go maps and 7.80 with them
	// behind an elemTable.
	index []uint32
	shift uint // 64 − log₂ len(index)

	heads chunked.Store[listHead] // list number → header, unused ones included
	slab  []int32                 // the runs derive laid, nil once released
	tails chunked.Store[int32]    // the tail blocks

	slabLive int    // ids of listed elements still in the slab
	live     int    // lists holding ids
	free     uint32 // the first unused list number + 1, 0 for none; its header's first is the next
	// refs is the compaction's working memory, kept for the next shrink: every
	// live tail block, by address.
	refs []blockRef
}

// listHead is a list's header: its element, its run slab[start:start+n], and
// its tail of tn ids — one, then the chain from the block at first to the one
// at last. A header whose list holds nothing is unused, its first the next
// unused one.
type listHead struct {
	e           hash.Element
	start, n    uint32
	tn          uint32
	one         [1]int32 // in what would be the struct's padding
	first, last uint32
}

// listHeadBytes is what a listed element costs beside its ids: its header.
const listHeadBytes = int(unsafe.Sizeof(listHead{}))

// Tail blocks double every second block, from firstBlock slots to blockCap,
// which every block from the 2·doublings-th on has. The room a tail's last
// block leaves is what a chain wastes, and a doubling every block left 1.45
// slots a tail id on TestAddRecordsGrowthAllocatesWhatItStores' tails (a Zipf
// mix, a fifth of them one id long), this 1.30 with the first id in the header
// (1.45 without); a long tail wastes at most a block's room, and a reader
// follows one link a block.
const (
	firstBlock = 4
	doublings  = 6
	blockCap   = firstBlock << doublings
)

// blockSize returns the slots of block k of a chain, its link included.
func blockSize(k int) int { return firstBlock << min(k/2, doublings) }

// blockOf returns where id i of a chain (from 0: the tail's second id) lies:
// its block's place in the chain and its slot there.
func blockOf(i int) (k, slot int) {
	for ; k < 2*doublings; k++ {
		held := blockSize(k) - 1
		if i < held {
			return k, i
		}
		i -= held
	}
	return 2*doublings + i/(blockCap-1), i % (blockCap - 1)
}

// lay starts the index over from derive's slab of `lists` lists, which each
// reports in slab order: an element and where its run ends, the first run
// starting at 0 and every other where the one before ends.
func (p *postingLists) lay(slab []int32, lists int, each func(list func(e hash.Element, end uint32))) {
	*p = postingLists{slab: slab, slabLive: len(slab), live: lists}
	heads := p.heads.Bulk(lists)
	l, start := 0, uint32(0)
	each(func(e hash.Element, end uint32) {
		heads[l] = listHead{e: e, start: start, n: end - start}
		l, start = l+1, end
	})
	p.reindex(lists)
}

// reindex sizes the index for n lists, at most half full — a miss, the
// lookup of a query element only another segment lists or of an insert's new
// element, reads a header for each slot it passes before the empty one — and
// enters every list holding ids.
func (p *postingLists) reindex(n int) {
	size := 2
	for size < 2*n {
		size *= 2
	}
	p.index, p.shift = make([]uint32, size), uint(64-bits.TrailingZeros(uint(size)))
	for l := 0; l < p.heads.Len(); l++ {
		if h := p.heads.Ptr(l); h.n+h.tn > 0 {
			p.index[p.slot(h.e)] = uint32(l + 1)
		}
	}
}

// home returns the index slot e's probe starts from.
func (p *postingLists) home(e hash.Element) int {
	return int(uint64(e) * 0x9E3779B97F4A7C15 >> p.shift)
}

// slot returns the index slot naming e's list or, when none does, the empty
// slot where e belongs.
func (p *postingLists) slot(e hash.Element) int {
	mask := len(p.index) - 1
	j := p.home(e)
	for l := p.index[j]; l != 0 && p.heads.Ptr(int(l-1)).e != e; l = p.index[j] {
		j = (j + 1) & mask
	}
	return j
}

// find returns e's header, nil when e has no list.
func (p *postingLists) find(e hash.Element) *listHead {
	if p.index == nil {
		return nil
	}
	if l := p.index[p.slot(e)]; l != 0 {
		return p.heads.Ptr(int(l - 1))
	}
	return nil
}

// read returns a list's run and an iterator over its tail: a reader walks the
// run, then each block more leaves in the iterator's ids.
func (p *postingLists) read(h *listHead) (run []int32, tail tailIter) {
	if h.n > 0 {
		run = p.slab[h.start : h.start+h.n]
	}
	return run, tailIter{tails: &p.tails, one: &h.one, at: h.first, k: -2, left: h.tn}
}

// tailIter walks a tail a part at a time: the id in the header, then each
// block.
type tailIter struct {
	tails *chunked.Store[int32]
	one   *[1]int32
	ids   []int32 // the part's ids
	at    uint32  // the block's address
	k     int     // the block's place in the chain, -1 for the header's id
	left  uint32  // the tail's ids past the part
	link  uint32  // the next block's address, while left > 0
}

// more moves to the next part; false past the last.
func (t *tailIter) more() bool {
	if t.left == 0 {
		return false
	}
	switch t.k++; {
	case t.k < 0:
		t.ids, t.left = t.one[:], t.left-1
		return true
	case t.k > 0:
		t.at = t.link
	}
	size := blockSize(t.k)
	blk := t.tails.From(t.at)[:size]
	n := min(t.left, uint32(size-1))
	t.ids, t.left = blk[:n], t.left-n
	if t.left > 0 {
		t.link = uint32(blk[size-1])
	}
	return true
}

// add appends record id, larger than every id listed, to e's list, which it
// opens if e has none.
func (p *postingLists) add(e hash.Element, id int32) {
	h := p.find(e)
	if h == nil {
		h = p.open(e)
	}
	p.push(h, id)
}

// open gives e an empty list, under an unused number if there is one,
// doubling the index first when one more list would fill more than three
// quarters of it.
func (p *postingLists) open(e hash.Element) *listHead {
	if 4*(p.live+1) > 3*len(p.index) {
		p.reindex(max(p.live+1, len(p.index)))
	}
	l := p.heads.Len()
	if p.free != 0 {
		l = int(p.free - 1)
		p.free = p.heads.Ptr(l).first
	} else {
		p.heads.Append(listHead{})
	}
	h := p.heads.Ptr(l)
	*h = listHead{e: e}
	p.index[p.slot(e)] = uint32(l + 1)
	p.live++
	return h
}

// drop empties list l, takes it out of the index and puts its number on the
// free list. The index moves back into the slot it leaves each list after it
// on its probe run that can take it — one whose probe starts at or before
// that slot — so that no lookup ends at the hole short of its list.
func (p *postingLists) drop(l int) {
	h := p.heads.Ptr(l)
	mask := len(p.index) - 1
	j := p.slot(h.e)
	for i := (j + 1) & mask; p.index[i] != 0; i = (i + 1) & mask {
		if (i-p.home(p.heads.Ptr(int(p.index[i]-1)).e))&mask >= (i-j)&mask {
			p.index[j], j = p.index[i], i
		}
	}
	p.index[j] = 0
	p.slabLive -= int(h.n)
	*h = listHead{first: p.free}
	p.free, p.live = uint32(l+1), p.live-1
}

// push appends id to a list's tail: into the header when the tail is empty,
// else into its last block or the next block of the chain, which it allocates
// and links.
func (p *postingLists) push(h *listHead, id int32) {
	if h.tn == 0 {
		h.one[0], h.tn = id, 1
		return
	}
	k, slot := blockOf(int(h.tn - 1))
	if slot == 0 {
		addr, blk := p.tails.Alloc(blockSize(k))
		if k == 0 {
			h.first = addr
		} else {
			p.tails.From(h.last)[blockSize(k-1)-1] = int32(addr)
		}
		h.last = addr
		blk[0] = id
	} else {
		p.tails.From(h.last)[slot] = id
	}
	h.tn++
}

// filter drops the list of every element whose key exceeds the (newly shrunk)
// cut — one walk over the headers, one hash a listed element — which leaves
// exactly the lists a derive at the new τ lays. The tail blocks of the
// dropped lists are compacted away, and the slab, once under half of it is
// live, is re-laid into the tail store and released.
func (p *postingLists) filter(cut uint32, seed uint64) {
	moved := false
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.n+h.tn == 0 || hash.Key32(h.e, seed) <= cut {
			continue
		}
		moved = moved || h.tn > 0
		p.drop(l)
	}
	if p.slab != nil && 2*p.slabLive < len(p.slab) {
		p.release()
		moved = true
	}
	if moved {
		p.compact()
	}
}

// release re-lays every list's run into its tail, ahead of what the tail
// held, and lets the slab go.
func (p *postingLists) release() {
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.n == 0 {
			continue
		}
		old := *h // the tail's first id is rewritten before it is read
		run, tail := p.read(&old)
		h.start, h.n, h.tn = 0, 0, 0
		for ids := run; ; ids = tail.ids {
			for _, id := range ids {
				p.push(h, id)
			}
			if !tail.more() {
				break
			}
		}
	}
	p.slab, p.slabLive = nil, 0
}

// blockRef is a live tail block: its address, its list and its place in the
// list's chain.
type blockRef struct{ addr, list, k uint32 }

// compact rewrites the tail store in place, front to back, with only the
// blocks of live lists, whole (a last block keeps its room), and releases the
// chunks that empties. A chain's blocks lie in address order — each was
// allocated after the one before, and compaction keeps the order — so once
// the blocks are sorted by address every link is rewritten to a block that
// has moved already.
func (p *postingLists) compact() {
	refs := p.refs[:0]
	for l := 0; l < p.heads.Len(); l++ {
		_, tail := p.read(p.heads.Ptr(l))
		for tail.more() {
			if tail.k >= 0 {
				refs = append(refs, blockRef{tail.at, uint32(l), uint32(tail.k)})
			}
		}
	}
	slices.SortFunc(refs, func(a, b blockRef) int { return cmp.Compare(a.addr, b.addr) })
	if p.tails.Len() > 0 {
		w := p.tails.Compact()
		for i := range refs {
			refs[i].addr = w.Put(p.tails.From(refs[i].addr)[:blockSize(int(refs[i].k))])
		}
		w.Done()
	}
	for _, r := range refs {
		h := p.heads.Ptr(int(r.list))
		if r.k == 0 {
			h.first = r.addr
		} else {
			p.tails.From(h.last)[blockSize(int(r.k)-1)-1] = int32(r.addr)
		}
		h.last = r.addr
	}
	p.refs = refs
}
