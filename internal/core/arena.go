package core

import (
	"fmt"
	"math"
	"sort"

	"gbkmv/internal/chunked"
	"gbkmv/internal/gkmv"
)

// sketchArena is the flat signature store: every record's G-KMV run of
// 32-bit keys (hash.Key32) with a CSR-style table of run addresses. Record
// i's run is keys.Run(offsets[i], offsets[i+1]), contiguous and ascending —
// not strictly: two elements of one record may share a key. One stored key is
// one budget unit and four bytes. The layout buys the query path contiguous
// intersections (no pointer chase, one cache stream per record) and bulk
// operations — threshold shrinks, unit accounting — that see the signature as
// a few arrays.
//
// All three tables are chunked stores (internal/chunked): derive lays each
// out as one slab of exactly its size, an insert appends to the last chunk or
// allocates one more, and nothing stored is ever copied to make room.
type sketchArena struct {
	keys     chunked.Store[uint32] // ascending runs, each within one chunk
	offsets  chunked.Store[uint32] // numRecords+1 addresses into keys: where run i starts, and where the last ends
	complete chunked.Store[bool]   // per record: every element hashed at or under the cut
}

// arenaLimit is the first address the uint32 offset table cannot hold: an
// arena's keys lie below it. A variable only so the tests can reach the bound
// without 16 GB of keys.
var arenaLimit = math.MaxUint32

// checkArenaRoom is the one guard in front of every write to the offset
// table and every read of a stored one.
func checkArenaRoom(keys int) error {
	if keys >= arenaLimit {
		return fmt.Errorf("%d keys overflow the sketch arena's 32-bit offset table (limit %d)", keys, arenaLimit)
	}
	return nil
}

// checkRoom reports whether `runs` more runs of `keys` keys in all are certain
// to fit the offset table: what AddRecords asks before it changes anything.
func (a *sketchArena) checkRoom(runs, keys int) error {
	if runs == 0 {
		return nil
	}
	return checkArenaRoom(a.keys.Bound(keys))
}

// layout starts the arena over for m records holding `keys` keys in all: it
// returns the key slab, the offset table and the completeness flags, every
// one exactly sized and zeroed, for derive's fill pass to write in record
// order — record i's run is keys[offsets[i]:offsets[i+1]]. It fails, before
// allocating anything, when the keys exceed what the offset table addresses.
func (a *sketchArena) layout(m, keys int) (slab, offsets []uint32, complete []bool, err error) {
	if err := checkArenaRoom(keys); err != nil {
		return nil, nil, nil, err
	}
	return a.keys.Bulk(keys), a.offsets.Bulk(m + 1), a.complete.Bulk(m), nil
}

// view returns record i's run as a gkmv.View. The view aliases the arena and
// is invalidated by any rebuild (threshold shrink, bulk resketch).
func (a *sketchArena) view(i int) gkmv.View {
	// The records derive laid out: their runs lie in the key slab for good (a
	// shrink moves a run towards the front only), back to back, the last up to
	// what the slab holds.
	if built := a.offsets.Slab(); i+1 < len(built) {
		keys := a.keys.Slab()
		return gkmv.MakeView(keys[built[i]:min(built[i+1], uint32(len(keys)))], a.complete.Slab()[i])
	}
	return a.grownView(i)
}

// grownView is view for the records inserts added.
func (a *sketchArena) grownView(i int) gkmv.View {
	return gkmv.MakeView(a.keys.Run(a.offsets.Pair(i)), *a.complete.Ptr(i))
}

// units returns the total number of stored keys — the G-KMV share of the
// space budget, O(1) by construction.
func (a *sketchArena) units() int { return a.keys.Len() }

// appendRun appends one record's ascending key run: to the last chunk if it
// fits there, to a new one if not. The caller has checked the room
// (checkRoom).
func (a *sketchArena) appendRun(run []uint32, complete bool) {
	start, keys := a.keys.Alloc(len(run))
	copy(keys, run)
	*a.offsets.Ptr(a.complete.Len()) = start
	a.offsets.Append(start + uint32(len(run)))
	a.complete.Append(complete)
}

// trimToCut shortens every record's run to its prefix of keys ≤ cut,
// compacting the key store in place, chunk by chunk, and downgrading
// completeness where keys were evicted; the chunks the compaction empties are
// released. Runs are ascending, so the surviving prefix is exactly what a
// from-scratch resketch at the lower threshold would store — this is what
// makes a threshold shrink free of any re-hashing.
func (a *sketchArena) trimToCut(cut uint32) {
	w := a.keys.Compact()
	// The table is walked in place, chunk by chunk: run i's new address goes
	// where its old one was once the next entry, its old end, has been read.
	var address *uint32
	i, slab := -1, a.keys.Slab()
	for _, table := range a.offsets.Chunks() {
		for j := range table {
			if address != nil {
				var run []uint32
				if start, end := *address, table[j]; int(end) <= len(slab) {
					run = slab[start:end] // as in view: most runs are the slab's
				} else {
					run = a.keys.Run(start, end)
				}
				keep := sort.Search(len(run), func(k int) bool { return run[k] > cut })
				if keep < len(run) {
					*a.complete.Ptr(i) = false
				}
				*address = w.Put(run[:keep])
			}
			address, i = &table[j], i+1
		}
	}
	*address = w.Done()
}

// scanKeys is the keyScan of the stored keys.
func (a *sketchArena) scanKeys(emit func(keys []uint32)) {
	for _, chunk := range a.keys.Chunks() {
		emit(chunk)
	}
}

// largestBelow returns the largest stored key strictly below cut, if any.
func (a *sketchArena) largestBelow(cut uint32) (below uint32, found bool) {
	for _, chunk := range a.keys.Chunks() {
		for _, v := range chunk {
			if v < cut && (!found || v > below) {
				below, found = v, true
			}
		}
	}
	return below, found
}

// tableBytes returns the footprint of the offset and completeness tables.
func (a *sketchArena) tableBytes() int { return 4*a.offsets.Len() + a.complete.Len() }
