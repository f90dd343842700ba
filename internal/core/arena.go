package core

import (
	"fmt"
	"math"
	"sort"

	"gbkmv/internal/gkmv"
)

// sketchArena is the flat signature store: every record's G-KMV run of
// 32-bit keys (hash.Key32) packed into one shared []uint32 with a CSR-style
// offset table. Record i's run is keys[offsets[i]:offsets[i+1]], ascending
// — not strictly: two elements of one record may share a key. One stored key
// is one budget unit and four bytes. The layout buys the query path two
// things: intersections walk contiguous memory (no pointer chase, one cache
// stream per record), and bulk operations — threshold shrinks, unit
// accounting — see the whole signature as one array.
type sketchArena struct {
	keys     []uint32 // concatenated ascending runs
	offsets  []uint32 // len = numRecords+1; run i is [offsets[i], offsets[i+1])
	complete []bool   // per record: every element hashed at or under the cut
}

// arenaLimit is the key count the uint32 offset table cannot address: an
// arena holds fewer keys than this. A variable only so the tests can reach
// the bound without 16 GB of keys.
var arenaLimit = math.MaxUint32

// checkArenaRoom is the one guard in front of every write to the offset
// table and every read of a stored one.
func checkArenaRoom(keys int) error {
	if keys >= arenaLimit {
		return fmt.Errorf("%d keys overflow the sketch arena's 32-bit offset table (limit %d)", keys, arenaLimit)
	}
	return nil
}

// view returns record i's run as a gkmv.View. The view aliases the arena and
// is invalidated by any rebuild (threshold shrink, bulk resketch).
func (a *sketchArena) view(i int) gkmv.View {
	return gkmv.MakeView(a.keys[a.offsets[i]:a.offsets[i+1]], a.complete[i])
}

// units returns the total number of stored keys — the G-KMV share of the
// space budget, O(1) by construction.
func (a *sketchArena) units() int { return len(a.keys) }

// appendRun appends one record's ascending key run; the caller has checked
// the room (checkArenaRoom).
func (a *sketchArena) appendRun(run []uint32, complete bool) {
	a.keys = append(a.keys, run...)
	a.offsets = append(a.offsets, uint32(len(a.keys)))
	a.complete = append(a.complete, complete)
}

// trimToCut shortens every record's run to its prefix of keys ≤ cut,
// compacting the key store in place and downgrading completeness where keys
// were evicted. Runs are ascending, so the surviving prefix is exactly what
// a from-scratch resketch at the lower threshold would store — this is what
// makes a threshold shrink free of any re-hashing.
func (a *sketchArena) trimToCut(cut uint32) {
	n := len(a.complete)
	w := uint32(0)
	for i := 0; i < n; i++ {
		run := a.keys[a.offsets[i]:a.offsets[i+1]]
		keep := sort.Search(len(run), func(j int) bool { return run[j] > cut })
		if keep < len(run) && a.complete[i] {
			a.complete[i] = false
		}
		// w never exceeds offsets[i], so this forward copy is safe.
		copy(a.keys[w:], run[:keep])
		a.offsets[i] = w
		w += uint32(keep)
	}
	a.offsets[n] = w
	a.keys = a.keys[:w]
}
