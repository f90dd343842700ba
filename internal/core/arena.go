package core

import (
	"sort"

	"gbkmv/internal/gkmv"
)

// sketchArena is the flat signature store: every record's G-KMV hash run
// packed into one shared []float64 with a CSR-style offset table, replacing
// the previous slice of per-record heap objects. Record i's run is
// hashes[offsets[i]:offsets[i+1]], ascending. The layout buys the query path
// two things: intersections walk contiguous memory (no pointer chase, one
// cache stream per record), and bulk operations — threshold shrinks,
// serialization, unit accounting — see the whole signature as one array.
type sketchArena struct {
	hashes   []float64 // concatenated ascending runs
	offsets  []uint32  // len = numRecords+1; run i is [offsets[i], offsets[i+1])
	complete []bool    // per record: every element hashed below τ
}

// view returns record i's run as a gkmv.View. The view aliases the arena and
// is invalidated by any rebuild (threshold shrink, bulk resketch).
func (a *sketchArena) view(i int) gkmv.View {
	return gkmv.MakeView(a.hashes[a.offsets[i]:a.offsets[i+1]], a.complete[i])
}

// units returns the total number of stored hash values — the G-KMV share of
// the space budget, O(1) by construction.
func (a *sketchArena) units() int { return len(a.hashes) }

// reset re-initializes the arena for n records with capacity for total hash
// values, reusing backing arrays where they fit.
func (a *sketchArena) reset(n, total int) {
	if cap(a.hashes) < total {
		a.hashes = make([]float64, 0, total)
	} else {
		a.hashes = a.hashes[:0]
	}
	if cap(a.offsets) < n+1 {
		a.offsets = make([]uint32, 1, n+1)
	} else {
		a.offsets = a.offsets[:1]
	}
	a.offsets[0] = 0
	if cap(a.complete) < n {
		a.complete = make([]bool, 0, n)
	} else {
		a.complete = a.complete[:0]
	}
}

// appendRun appends one record's ascending hash run.
func (a *sketchArena) appendRun(run []float64, complete bool) {
	a.hashes = append(a.hashes, run...)
	a.offsets = append(a.offsets, uint32(len(a.hashes)))
	a.complete = append(a.complete, complete)
}

// trimToTau shortens every record's run to its prefix of values ≤ tau,
// compacting the hash store in place and downgrading completeness where
// values were evicted. Runs are ascending, so the surviving prefix is
// exactly what a from-scratch resketch at the lower threshold would store —
// this is what makes a threshold shrink free of any re-hashing.
func (a *sketchArena) trimToTau(tau float64) {
	n := len(a.complete)
	w := uint32(0)
	for i := 0; i < n; i++ {
		run := a.hashes[a.offsets[i]:a.offsets[i+1]]
		keep := sort.Search(len(run), func(j int) bool { return run[j] > tau })
		if keep < len(run) && a.complete[i] {
			a.complete[i] = false
		}
		// w never exceeds offsets[i], so this forward copy is safe.
		copy(a.hashes[w:], run[:keep])
		a.offsets[i] = w
		w += uint32(keep)
	}
	a.offsets[n] = w
	a.hashes = a.hashes[:w]
}

// valid reports whether the arena is structurally consistent for n records
// under threshold tau: monotone offsets closing exactly over the hash store,
// ascending runs of values in [0, tau] (which also rules out NaN). Used to
// validate deserialized arenas before anything indexes into them.
func (a *sketchArena) valid(n int, tau float64) bool {
	if len(a.offsets) != n+1 || len(a.complete) != n || a.offsets[0] != 0 {
		return false
	}
	for i := 0; i < n; i++ {
		if a.offsets[i] > a.offsets[i+1] {
			return false
		}
	}
	if int(a.offsets[n]) != len(a.hashes) {
		return false
	}
	for i := 0; i < n; i++ {
		prev := 0.0
		for _, v := range a.hashes[a.offsets[i]:a.offsets[i+1]] {
			if !(v >= prev && v <= tau) {
				return false
			}
			prev = v
		}
	}
	return true
}
