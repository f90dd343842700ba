package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"gbkmv/internal/chunked"
	"gbkmv/internal/hash"
)

// postingLists is the inverted index over the G-KMV keys (Section IV-B), and
// the only place the keys are stored: per kept element, the ascending ids of
// the records whose sketch holds it — the element's key, stored once for all
// of them as the element the list is of — coded
// as the gaps between them (the first from −1) in 16-bit slots — a gap of
// 2¹⁶ or more as a 0 slot and its low and high halves. An element finds its
// list number in the index and the number its header. A list is two parts:
//
//	run   what derive laid out, a window of the one exactly sized slab it
//	      filled, all lists back to back
//	tail  what inserts added since: up to two slots in the header, past that
//	      a chain of blocks of 8, 8, 16, 16, 32 … up to 512 slots, each
//	      block's last two slots the address of the next, all of them Alloc'd
//	      from one chunked store (a block never straddles a chunk)
//
// so an insert writes its gap into the header, the list's last block or a
// block it allocates, and copies nothing but the header's two slots, once; a
// list no insert reached is a plain slab run. An escape is never split: one
// that does not fit its block's room starts the next block, and the room is
// left zero, which a reader (tailIter) cuts off.
// A threshold shrink drops whole lists (filter): their headers go to a free
// list of numbers, the tail store is compacted in place, and once under half
// of the slab is live the live runs are copied to a slab of their size.
type postingLists struct {
	// index is an open-addressed table of list numbers + 1 (0 marks an empty
	// slot), probed linearly from elemTable's multiplicative hash of the
	// element, which it compares in the header a slot names. It holds the
	// element where it already is, so a slot is 4 bytes, not elemTable's 16:
	// TestSnapshotAllocs' τ = 1 collection, then two segments of 27 000 lists
	// each, held 6.23 MB loaded, 6.56 with the lists in Go maps and 7.80 with
	// them behind an elemTable (as one index of 32-bit ids it held 5.24 MB).
	index []uint32
	shift uint // 64 − log₂ len(index)

	heads chunked.Store[listHead] // list number → header, unused ones included
	slab  []uint16                // the runs derive laid, dropped ones included until a shrink re-lays it
	tails chunked.Store[uint16]   // the tail blocks

	slabLive int    // slots of listed elements still in the slab
	slots    int    // slots the live lists' gaps take: no room, link or skipped end
	live     int    // lists holding ids
	free     uint32 // the first unused list number + 1, 0 for none; its header's last is the next
	// refs is the compaction's working memory, kept for the next shrink: every
	// live tail block, by address.
	refs []blockRef
}

// listHead is a list's header: its element, its run slab[start:start+n], its
// tail of tn slots (a block's skipped end included) and its largest id, from
// which an insert's gap is taken. A tail of up to two slots is held in head;
// past that, head holds the address of its first block and last that of its
// last. A header whose list holds nothing is unused, its last the next unused
// one.
type listHead struct {
	e        hash.Element
	start, n uint32
	tn       uint32
	top      int32 // −1 while the list holds nothing
	head     [2]uint16
	last     uint32
}

// listHeadBytes is what a listed element costs beside its gaps: its header.
const listHeadBytes = int(unsafe.Sizeof(listHead{}))

// escapeSlots is what a gap of 2¹⁶ or more takes: a 0 slot, then its low and
// high halves.
const escapeSlots = 3

// putGap codes gap g ≥ 1 at the front of s, which has the room, and returns
// the slots it took.
func putGap(s []uint16, g uint32) int {
	if g < 1<<16 {
		s[0] = uint16(g)
		return 1
	}
	s[0], s[1], s[2] = 0, uint16(g), uint16(g>>16)
	return escapeSlots
}

// escaped returns the gap of the escape at s[i] and the index of its last
// slot. Readers decode a list as
//
//	for i := 0; i < len(s); i++ {
//		g := int32(s[i])
//		if g == 0 {
//			g, i = escaped(s, i)
//		}
//		id += g
//
// from id = −1, over the run and then each part of the tail.
func escaped(s []uint16, i int) (int32, int) {
	return int32(join(s[i+1], s[i+2])), i + 2
}

// join returns the 32-bit value whose low and high halves are lo and hi, an
// escaped gap or a block address; split is its inverse.
func join(lo, hi uint16) uint32 { return uint32(lo) | uint32(hi)<<16 }

func split(v uint32) [2]uint16 { return [2]uint16{uint16(v), uint16(v >> 16)} }

// Tail blocks double every second block, from firstBlock slots to blockCap,
// which every block from the 2·doublings-th on has, the last linkSlots of each
// the next block's address. The room a tail's last block leaves is what a
// chain wastes; a long tail wastes at most a block's room, and a reader
// follows one link a block.
const (
	inlineSlots = 2
	linkSlots   = 2
	firstBlock  = 8
	doublings   = 6
	blockCap    = firstBlock << doublings
)

// blockSize returns the slots of block k of a chain, its link included.
func blockSize(k int) int { return firstBlock << min(k/2, doublings) }

// blockOf returns where slot i of a tail that has blocks lies: its block's
// place in the chain and its slot there.
func blockOf(i int) (k, slot int) {
	for ; k < 2*doublings; k++ {
		held := blockSize(k) - linkSlots
		if i < held {
			return k, i
		}
		i -= held
	}
	return 2*doublings + i/(blockCap-linkSlots), i % (blockCap - linkSlots)
}

// postingLimit is the first slot address the lists' uint32 positions cannot
// hold: the slab derive lays and the tail store lie below it. A variable only
// so the tests can reach the bound without 8 GB of slots.
var postingLimit = math.MaxUint32

// checkPostingRoom guards every layout of the slab and every insert batch.
func checkPostingRoom(slots int) error {
	if slots >= postingLimit {
		return fmt.Errorf("%d posting slots overflow the posting lists' 32-bit positions (limit %d)", slots, postingLimit)
	}
	return nil
}

// tailBound returns an address the tail store stays below while `keys` more
// ids are listed, which AddRecords checks before it changes anything. An id
// takes at most escapeSlots slots. A list's new blocks are full but for the
// last, each at least half data, so they hold at most twice its new slots;
// the last is at most blockCap, and at most the (full) blocks before it in
// its chain put together — twice the list's tail, new slots included — or
// firstBlock, a list's first.
func (p *postingLists) tailBound(keys int) int {
	last := min(blockCap*keys, firstBlock*keys+2*p.tails.Len())
	return p.tails.Bound(4*escapeSlots*keys + last)
}

// smallIDs is the most records whose ids derive lays in 16 bits: every gap
// between them, the first one's from −1 included, is under 2¹⁶.
const smallIDs = 1<<16 - 1

// lay starts the index over from derive's slab of `lists` lists of record
// ids, which each reports in slab order: an element and where its run ends,
// the first run starting at 0 and every other where the one before ends. The
// ids are in ids16 when every gap fits a slot, and their gaps are coded in
// place; else in ids32, and coded into a slab of exactly their slots — which
// fails, before the slab is allocated, when the slots' escapes take it past
// what the lists' positions address.
func (p *postingLists) lay(ids16 []uint16, ids32 []int32, lists int, each func(list func(e hash.Element, end uint32))) error {
	*p = postingLists{live: lists}
	heads := p.heads.Bulk(lists)
	l, start := 0, uint32(0)
	each(func(e hash.Element, end uint32) {
		heads[l] = listHead{e: e, start: start, n: end - start}
		l, start = l+1, end
	})
	if ids32 == nil {
		for i := range heads {
			h, prev := &heads[i], int32(-1)
			run := ids16[h.start : h.start+h.n]
			for j, id := range run {
				run[j], prev = uint16(int32(id)-prev), int32(id)
			}
			h.top = prev
		}
		p.slab = ids16
	} else {
		slots := len(ids32)
		for i := range heads {
			prev := int32(-1)
			for _, id := range ids32[heads[i].start : heads[i].start+heads[i].n] {
				if uint32(id-prev) >= 1<<16 {
					slots += escapeSlots - 1
				}
				prev = id
			}
		}
		if err := checkPostingRoom(slots); err != nil {
			return err
		}
		p.slab = make([]uint16, slots)
		at := 0
		for i := range heads {
			h, prev := &heads[i], int32(-1)
			run := ids32[h.start : h.start+h.n]
			h.start = uint32(at)
			for _, id := range run {
				at += putGap(p.slab[at:], uint32(id-prev))
				prev = id
			}
			h.n, h.top = uint32(at)-h.start, prev
		}
	}
	p.slabLive, p.slots = len(p.slab), len(p.slab)
	p.reindex(lists)
	return nil
}

// reindex sizes the index for n lists, at most half full — a miss, the
// lookup of a query element no list holds or of an insert's new element,
// reads a header for each slot it passes before the empty one — and enters
// every list holding ids.
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

// read returns a list's run and an iterator over its tail: a reader decodes
// the run, then each part more leaves in the iterator's slots.
func (p *postingLists) read(h *listHead) (run []uint16, tail tailIter) {
	if h.n > 0 {
		run = p.slab[h.start : h.start+h.n]
	}
	return run, tailIter{tails: &p.tails, head: &h.head, k: -2, left: h.tn}
}

// tailIter walks a tail a part at a time: the header's slots, or each block.
type tailIter struct {
	tails *chunked.Store[uint16]
	head  *[2]uint16
	slots []uint16 // the part's slots
	at    uint32   // the block's address
	k     int      // the block's place in the chain, -1 for the header's slots
	left  uint32   // the tail's slots past the part
	link  uint32   // the next block's address, while left > 0
}

// more moves to the next part; false past the last. A block the tail goes
// on past is full, and the zeros at its end are room an escape was not
// started in: no gap ends in a zero slot (an escaped one's high half is at
// least 1).
func (t *tailIter) more() bool {
	if t.left == 0 {
		return false
	}
	switch t.k++; {
	case t.k < 0 && t.left <= inlineSlots:
		t.slots, t.left = t.head[:t.left], 0
		return true
	case t.k < 0:
		t.k, t.at = 0, join(t.head[0], t.head[1])
	default:
		t.at = t.link
	}
	size := blockSize(t.k)
	blk := t.tails.From(t.at)[:size]
	n := min(t.left, uint32(size-linkSlots))
	t.slots, t.left = blk[:n], t.left-n
	if t.left > 0 {
		t.link = join(blk[size-2], blk[size-1])
		for len(t.slots) > 0 && t.slots[len(t.slots)-1] == 0 {
			t.slots = t.slots[:len(t.slots)-1]
		}
	}
	return true
}

// listSlots returns the slots a list's gaps take, its tail's skipped room
// left out.
func (p *postingLists) listSlots(h *listHead) int {
	run, tail := p.read(h)
	n := len(run)
	for tail.more() {
		n += len(tail.slots)
	}
	return n
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
		p.free = p.heads.Ptr(l).last
	} else {
		p.heads.Append(listHead{})
	}
	h := p.heads.Ptr(l)
	*h = listHead{e: e, top: -1}
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
	p.slots -= p.listSlots(h)
	*h = listHead{last: p.free}
	p.free, p.live = uint32(l+1), p.live-1
}

// push appends id to a list's tail: its gap into the header while the tail
// fits there, else into its last block or the next block of the chain, which
// it allocates and links. The tail's first block takes the header's slots
// with it.
func (p *postingLists) push(h *listHead, id int32) {
	var gap [escapeSlots]uint16
	n := putGap(gap[:], uint32(id-h.top))
	h.top, p.slots = id, p.slots+n
	if int(h.tn)+n <= inlineSlots {
		copy(h.head[h.tn:], gap[:n])
		h.tn += uint32(n)
		return
	}
	if h.tn <= inlineSlots {
		addr, blk := p.tails.Alloc(blockSize(0))
		copy(blk, h.head[:h.tn])
		h.head, h.last = split(addr), addr
	}
	k, slot := blockOf(int(h.tn))
	if room := blockSize(k) - linkSlots - slot; room < n {
		clear(p.tails.From(h.last)[slot : slot+room])
		h.tn += uint32(room)
		k, slot = k+1, 0
	}
	if slot == 0 && k > 0 {
		addr, _ := p.tails.Alloc(blockSize(k))
		p.setLink(h.last, k-1, addr)
		h.last = addr
	}
	copy(p.tails.From(h.last)[slot:], gap[:n])
	h.tn += uint32(n)
}

// setLink makes addr the next of block k of a chain, at address at.
func (p *postingLists) setLink(at uint32, k int, addr uint32) {
	link := split(addr)
	copy(p.tails.From(at)[blockSize(k)-linkSlots:], link[:])
}

// keyCounts returns, appended to pairs, a (key, ids) pair a list number — the
// listed element's key and how many record ids the list holds, and (0, 0) for
// an unused number — one hash a listed element: the multiset {key × ids} is
// every record's kept keys, which a threshold shrink selects its cut from and
// filters the lists by.
func (p *postingLists) keyCounts(pairs []keyCount, seed uint64) []keyCount {
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.n+h.tn == 0 {
			pairs = append(pairs, keyCount{})
			continue
		}
		n := 0
		run, tail := p.read(h)
		for s := run; ; s = tail.slots {
			for i := 0; i < len(s); i++ {
				if s[i] == 0 {
					i += escapeSlots - 1
				}
				n++
			}
			if !tail.more() {
				break
			}
		}
		pairs = append(pairs, keyCount{hash.Key32(h.e, seed), uint32(n)})
	}
	return pairs
}

// filter drops the list of every element whose key, in keyCounts' pairs,
// exceeds the (newly shrunk) cut, which leaves exactly the lists a derive at
// the new τ lays. The tail blocks of the dropped lists are compacted away,
// and the slab, once under half of it is live, is re-laid at the size of
// what is.
func (p *postingLists) filter(pairs []keyCount, cut uint32) {
	moved := false
	for l, pair := range pairs {
		if pair.n == 0 || pair.key <= cut {
			continue
		}
		moved = moved || p.heads.Ptr(l).tn > inlineSlots
		p.drop(l)
	}
	if 2*p.slabLive < len(p.slab) {
		p.relay()
	}
	if moved {
		p.compact()
	}
}

// relay lays the live runs into a slab of exactly their slots, in list
// order, and lets the old slab go.
func (p *postingLists) relay() {
	var slab []uint16
	if p.slabLive > 0 {
		slab = make([]uint16, 0, p.slabLive)
	}
	for l := 0; l < p.heads.Len(); l++ {
		if h := p.heads.Ptr(l); h.n > 0 {
			run := p.slab[h.start : h.start+h.n]
			h.start, slab = uint32(len(slab)), append(slab, run...)
		}
	}
	p.slab = slab
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
			h.head = split(r.addr)
		} else {
			p.setLink(h.last, int(r.k)-1, r.addr)
		}
		h.last = r.addr
	}
	p.refs = refs
}
