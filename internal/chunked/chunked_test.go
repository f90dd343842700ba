package chunked

import (
	"math/rand"
	"slices"
	"testing"
)

// runStore drives a Store[uint32] the way the sketch arena and the packed
// records do — one address a run, the last rewritten when the next run goes
// to a new chunk — beside the plain [][]uint32 it must equal.
type runStore struct {
	s       Store[uint32]
	offsets []uint32
	want    [][]uint32
}

func (r *runStore) add(t *testing.T, run []uint32) {
	t.Helper()
	bound, place := r.s.Bound(len(run)), r.s.Place(len(run))
	start, dst := r.s.Alloc(len(run))
	copy(dst, run)
	if int(start) != place {
		t.Fatalf("run %d of %d: Alloc put it at %d, Place said %d", len(r.want), len(run), start, place)
	}
	if end := int(start) + len(run); end > bound || r.s.End() > bound {
		t.Fatalf("run %d of %d ends at %d (store at %d), Bound said below %d", len(r.want), len(run), end, r.s.End(), bound)
	}
	if len(r.offsets) == 0 {
		r.offsets = append(r.offsets, start)
	}
	r.offsets[len(r.offsets)-1] = start
	r.offsets = append(r.offsets, start+uint32(len(run)))
	r.want = append(r.want, slices.Clone(run))
}

// trim compacts the store, each run cut to keep(i) of its elements.
func (r *runStore) trim(keep func(i, n int) int) {
	w := r.s.Compact()
	start := r.offsets[0]
	for i := range r.want {
		end := r.offsets[i+1]
		run := r.s.Run(start, end)
		k := keep(i, len(run))
		r.offsets[i] = w.Put(run[:k])
		r.want[i] = r.want[i][:k]
		start = end
	}
	r.offsets[len(r.want)] = w.Done()
}

func (r *runStore) check(t *testing.T, label string) {
	t.Helper()
	stored, allocated := 0, 0
	for i, want := range r.want {
		if got := r.s.Run(r.offsets[i], r.offsets[i+1]); !slices.Equal(got, want) {
			t.Fatalf("%s: run %d at [%d, %d) is %v, want %v", label, i, r.offsets[i], r.offsets[i+1], got, want)
		}
		if i > 0 && r.offsets[i] < r.offsets[i-1] {
			t.Fatalf("%s: run %d at %d, before run %d at %d", label, i, r.offsets[i], i-1, r.offsets[i-1])
		}
		stored += len(want)
	}
	if r.s.Len() != stored {
		t.Fatalf("%s: Len = %d, %d stored", label, r.s.Len(), stored)
	}
	if flat := slices.Concat(r.s.Chunks()...); !slices.Equal(flat, slices.Concat(r.want...)) {
		t.Fatalf("%s: the chunks in order are not the runs in order", label)
	}
	for _, c := range r.s.Chunks() {
		allocated += cap(c)
	}
	// Nothing is ever moved to make room, so what is allocated is what the
	// chunks hold: the runs, a chunk's tail where a run did not fit, and
	// the chunk being filled.
	if longest := len(slices.MaxFunc(append(r.want, nil), func(a, b []uint32) int { return len(a) - len(b) })); allocated > stored+(len(r.s.Chunks())+1)*max(longest, 1)+1<<r.s.shift && len(r.want) > 0 {
		t.Fatalf("%s: %d allocated in %d chunks for %d stored (longest run %d)", label, allocated, len(r.s.Chunks()), stored, longest)
	}
}

// TestRunsAcrossChunks: runs of every shape — empty, short, just under and
// over what is left of a chunk, exactly a chunk, longer than one and than
// three — appended to an empty store and to a bulk-built one read back whole
// from the addresses kept, through compactions that cut every run to a prefix
// (to nothing, too) and the appends that follow them.
func TestRunsAcrossChunks(t *testing.T) {
	const perChunk = chunkBytes / 4
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		next := uint32(0)
		fill := func(n int) []uint32 {
			run := make([]uint32, n)
			for i := range run {
				next++
				run[i] = next
			}
			return run
		}
		var r runStore
		if seed%2 == 0 { // a bulk slab of runs laid out by prefix sums, the last two empty
			lengths := []int{5, 0, 300, 1, 0, 0}
			total := 0
			r.offsets = append(r.offsets, 0)
			for _, n := range lengths {
				total += n
				r.offsets = append(r.offsets, uint32(total))
			}
			slab := r.s.Bulk(total)
			for i, n := range lengths {
				run := fill(n)
				copy(slab[r.offsets[i]:], run)
				r.want = append(r.want, run)
			}
			r.check(t, "bulk")
		}
		sizes := []int{0, 1, 7, 100, perChunk - 1, perChunk, perChunk + 1, 3*perChunk + 5}
		for round := 0; round < 4; round++ {
			for i := 0; i < 60; i++ {
				n := sizes[rng.Intn(len(sizes))]
				if rng.Intn(3) > 0 {
					n = rng.Intn(2000)
				}
				r.add(t, fill(n))
			}
			r.check(t, "grown")
			switch round {
			case 0:
				r.trim(func(_, n int) int { return n }) // nothing goes: every run fits where it was
			case 1:
				r.trim(func(_, n int) int { return rng.Intn(n + 1) })
			case 2:
				r.trim(func(i, n int) int { return min(n, i%3) }) // nearly everything goes
				room := 0
				for _, c := range r.s.Chunks()[1:] {
					room += cap(c)
				}
				if room > perChunk {
					t.Fatalf("seed %d: chunks with room for %d kept for %d elements", seed, room, r.s.Len())
				}
			default:
				r.trim(func(int, int) int { return 0 })
			}
			r.check(t, "compacted")
		}
	}
}

// TestRowsStayDense: a store used by row — bulk-built or not, rows of one
// element or several — numbers its rows 0, 1, 2 … across chunk boundaries,
// hands each out zeroed and apart from every other, and counts what it holds.
func TestRowsStayDense(t *testing.T) {
	for _, tc := range []struct{ stride, bulk, more int }{
		{1, 0, 3*chunkBytes/8 + 17},
		{1, 1000, 2 * chunkBytes / 8},
		{3, 0, chunkBytes/8 + 5},
		{3, 77, chunkBytes / 8},
		{5, 1, 2 * chunkBytes / 8},
	} {
		var s Store[uint64]
		s.Reset(tc.stride)
		if tc.bulk > 0 {
			if slab := s.Bulk(tc.bulk); len(slab) != tc.bulk*tc.stride || cap(slab) != len(slab) {
				t.Fatalf("%+v: a bulk slab of %d words (cap %d)", tc, len(slab), cap(slab))
			}
		}
		for added := 0; added < tc.more; {
			n := min(1+added%9, tc.more-added)
			s.Extend(n)
			added += n
		}
		rows := tc.bulk + tc.more
		if s.Len() != rows {
			t.Fatalf("%+v: Len = %d, want %d", tc, s.Len(), rows)
		}
		for i := 0; i < rows; i++ {
			row := s.Row(i)
			if len(row) != tc.stride || slices.Max(row) != 0 {
				t.Fatalf("%+v: row %d is %v before it was written", tc, i, row)
			}
			for j := range row {
				row[j] = uint64(i*tc.stride + j + 1)
			}
		}
		words := slices.Concat(s.Chunks()...)
		if len(words) != rows*tc.stride {
			t.Fatalf("%+v: the chunks hold %d words, want %d", tc, len(words), rows*tc.stride)
		}
		for k, w := range words {
			if w != uint64(k+1) {
				t.Fatalf("%+v: word %d holds %d: rows overlap or are out of order", tc, k, w)
			}
		}
	}
	var ids Store[int]
	for i := 0; i < chunkBytes/8+3; i++ {
		ids.Append(i)
	}
	for i := 0; i < ids.Len(); i++ {
		if *ids.Ptr(i) != i {
			t.Fatalf("element %d is %d", i, *ids.Ptr(i))
		}
	}
}

// TestGrowthNeverMoves: an element's address in memory, taken when it was
// stored, is its address however much is appended after it, and a store
// starts out small: 1 kB, then chunks that double up to the whole one.
func TestGrowthNeverMoves(t *testing.T) {
	var s Store[byte]
	var starts []uint32
	var where []*byte
	for i := 0; i < 3000; i++ {
		start, dst := s.Alloc(1 + i%200)
		dst[0] = byte(i)
		starts, where = append(starts, start), append(where, &dst[0])
	}
	var caps []int
	for _, c := range s.Chunks()[1:] {
		caps = append(caps, cap(c)>>10)
	}
	if want := []int{1, 1, 2, 4, 8, 16, 32, 64, 64, 64, 64}; !slices.Equal(caps[:len(want)], want) {
		t.Fatalf("chunks of %v kB, want %v", caps, want)
	}
	for i, start := range starts {
		if p := &s.From(start)[0]; p != where[i] || *p != byte(i) {
			t.Fatalf("run %d moved", i)
		}
	}
}
