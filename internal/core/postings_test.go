package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// refLists is the inverted index rebuilt by brute force from (records, E_H,
// τ): per element off E_H whose key is at or under the cut, the records that
// hold it, ascending.
func refLists(ix *Index) map[hash.Element][]int32 {
	lists := map[hash.Element][]int32{}
	for i, rec := range recordsOf(ix) {
		for _, e := range rec {
			if _, buffered := ix.bitOf.lookup(e); !buffered && hash.Key32(e, ix.opt.Seed) <= ix.cut {
				lists[e] = append(lists[e], int32(i))
			}
		}
	}
	return lists
}

// tailSlots returns the slots the live tails' blocks take, links and room
// included, and the room alone of each tail's last block.
func tailSlots(ix *Index) (slots, room int) {
	p := &ix.postings
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.tn < 2 {
			continue
		}
		last, fill := blockOf(int(h.tn - 2))
		for k := 0; k <= last; k++ {
			slots += blockSize(k)
		}
		room += blockSize(last) - 1 - (fill + 1)
	}
	return slots, room
}

// tailCapacity returns the slots the tail store's chunks have room for: what
// it has allocated, since it never copies to grow.
func tailCapacity(ix *Index) int {
	n := 0
	for _, chunk := range ix.postings.tails.Chunks() {
		n += cap(chunk)
	}
	return n
}

// checkPostings asserts that every list of ix, read run first and then its
// tail, is the brute-force one, and that the tail store holds the live tails'
// blocks and nothing else.
func checkPostings(t *testing.T, ix *Index, label string) {
	t.Helper()
	got, want := listsOf(t, ix), refLists(ix)
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements listed, the reference %d", label, len(got), len(want))
	}
	for e, ids := range want {
		if !slices.Equal(got[e], ids) {
			t.Fatalf("%s: element %d lists %v, the reference %v", label, e, got[e], ids)
		}
	}
	if slots, _ := tailSlots(ix); ix.postings.tails.Len() != slots {
		t.Fatalf("%s: the tail store holds %d slots, the live tails take %d", label, ix.postings.tails.Len(), slots)
	}
}

// growWithShrinks builds an index of base's records and inserts the others in
// batches of 1 to maxBatch records, checking the lists after every batch.
func growWithShrinks(t *testing.T, records []dataset.Record, base int, opt Options, rng *rand.Rand, maxBatch int, label string) *Index {
	t.Helper()
	ix, err := BuildIndex(&dataset.Dataset{Records: records[:base]}, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkPostings(t, ix, label+", built")
	for i := base; i < len(records); {
		n := min(1+rng.Intn(maxBatch), len(records)-i)
		ix.AddRecords(records[i : i+n])
		i += n
		checkPostings(t, ix, fmt.Sprintf("%s, %d records", label, i))
	}
	return ix
}

// TestPostingsUnderInserts: under random insert schedules that shrink the
// threshold, at r ∈ {0, 64, 192}, every list — its derive-laid run, then its
// tail — is the list a brute-force rebuild from (records, E_H, τ) gives, after
// every batch; the tail store holds nothing but live blocks; and the grown
// index's lists are its reload's. The tightest budget takes τ low enough that
// the slab is given up.
func TestPostingsUnderInserts(t *testing.T) {
	d := buildTestDataset(t, 31, 700)
	released := 0
	for _, r := range []int{0, 64, 192} {
		for _, units := range []int{0, 20000, 6000} { // the default budget, then two that inserts overrun
			for seed := int64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("r=%d, %d units, seed %d", r, units, seed)
				rng := rand.New(rand.NewSource(seed))
				ix := growWithShrinks(t, d.Records, 200+rng.Intn(100), Options{BudgetUnits: units, BufferBits: r, Seed: testSeed}, rng, 12, label)
				if ix.postings.slab == nil {
					released++
				}
				loaded := reload(t, ix, label)
				sameDerived(t, loaded, ix, false, label+", reloaded")
				checkPostings(t, loaded, label+", reloaded")
			}
		}
	}
	if released == 0 {
		t.Fatal("no schedule shrank the threshold far enough to release a slab")
	}
}

// TestPostingsShrinkKeepsTailsBounded: a threshold shrink drops lists, and the
// tail blocks of the dropped lists are compacted away: under traffic that
// shrinks every few inserts, the tail store's chunks have room for at most
// what the live tails hold, one chunk, one partly filled block per tail, and
// at each chunk's end less than the block that did not fit there.
func TestPostingsShrinkKeepsTailsBounded(t *testing.T) {
	d := buildTestDataset(t, 93, 15000)
	ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:1200]}, Options{BudgetUnits: 100000, BufferBits: 128, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSlots = 64 << 10 / 4
	peak := 0
	for i := 1200; i < len(d.Records); i += 3 {
		ix.AddRecords(d.Records[i : i+3])
		slots, room := tailSlots(ix)
		capacity, chunks := tailCapacity(ix), len(ix.postings.tails.Chunks())
		if held := slots - room; capacity > held+chunkSlots+room+chunks*(blockCap-1) {
			t.Fatalf("after %d records: %d chunks with room for %d slots, the tails hold %d and leave %d in their last blocks", i+3, chunks, capacity, held, room)
		}
		peak = max(peak, capacity)
	}
	_, shrinks := ix.BuildCounters()
	t.Logf("τ = %.3f after %d shrinks: tails take %d slots, room for %d (peak %d)", ix.Tau(), shrinks, ix.postings.tails.Len(), tailCapacity(ix), peak)
	if shrinks < 10 || 3*tailCapacity(ix) > 2*peak {
		t.Fatalf("%d shrinks, room for %d slots at a peak of %d: the fixture did not shrink hard from a peak", shrinks, tailCapacity(ix), peak)
	}
	checkPostings(t, ix, "shrunk")
}

// TestPostingsReleaseTheSlab: once a shrink leaves under half of the slab
// derive laid live, its lists are re-laid into their tails, ahead of what the
// tails held, and the slab is let go: the lists are unchanged, and the tails
// alone take less room than the slab and the tails did before.
func TestPostingsReleaseTheSlab(t *testing.T) {
	d := buildTestDataset(t, 47, 3000)
	ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:1000]}, Options{BudgetUnits: 30000, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	built, before := len(ix.postings.slab), 0
	for i := 1000; i < len(d.Records) && ix.postings.slab != nil; i++ {
		before = len(ix.postings.slab) + tailCapacity(ix)
		ix.AddRecords(d.Records[i : i+1])
		if p := &ix.postings; p.slab != nil && 2*p.slabLive < len(p.slab) {
			t.Fatalf("after record %d: %d of the slab's %d ids live, and it is kept", i, p.slabLive, len(p.slab))
		}
	}
	if ix.postings.slab != nil {
		t.Fatalf("the inserts left %d of the slab's %d ids live: the fixture does not release it", ix.postings.slabLive, built)
	}
	checkPostings(t, ix, "released")
	t.Logf("slab of %d ids released at τ = %.3f: room for %d ids in the slab and the tails before, %d in the tails after", built, ix.Tau(), before, tailCapacity(ix))
	if tailCapacity(ix) >= before {
		t.Fatalf("the tails have room for %d ids, the slab and the tails had %d", tailCapacity(ix), before)
	}
	sameDerived(t, reload(t, ix, "released"), ix, false, "released")
}

// TestPostingsIndexDrop: opening and dropping lists in any order, on an
// index small enough that probe runs wrap around its end, finds what a map
// does, and a drop leaves no list unfound behind it.
func TestPostingsIndexDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		var p postingLists
		want := map[hash.Element]int32{}
		for op := int32(0); op < 400; op++ {
			e := hash.Element(rng.Intn(40)) * 0x10001 // a few home slots, long runs
			if _, in := want[e]; in && rng.Intn(3) == 0 {
				p.drop(int(p.index[p.slot(e)] - 1))
				delete(want, e)
			} else {
				p.add(e, op)
				if _, in := want[e]; !in {
					want[e] = op
				}
			}
			if p.live != len(want) {
				t.Fatalf("round %d, op %d: %d lists counted, %d held", round, op, p.live, len(want))
			}
			for x := hash.Element(0); x < 40; x++ {
				h := p.find(x * 0x10001)
				if first, in := want[x*0x10001]; (h != nil) != in || (in && (h.e != x*0x10001 || h.one[0] != first)) {
					t.Fatalf("round %d, op %d: element %d finds %+v, want a list from %d: %v", round, op, x, h, first, in)
				}
			}
		}
	}
}

// FuzzPostingsUnderInserts is TestPostingsUnderInserts on fuzz-chosen
// schedules: the base's size, the budget, r and the batch sizes, the lists
// checked against the brute-force rebuild after every batch and against the
// reload at the end. CI runs it briefly (-fuzz FuzzPostingsUnderInserts
// -fuzztime 15s).
func FuzzPostingsUnderInserts(f *testing.F) {
	f.Add(uint8(100), uint16(0), uint8(1), []byte{1, 2, 3, 4})
	f.Add(uint8(20), uint16(300), uint8(2), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(250), uint16(2000), uint8(0), []byte{15, 1, 15, 1, 15})
	f.Add(uint8(60), uint16(800), uint8(1), []byte{0, 0, 3, 9, 2, 11, 5, 5, 5, 14, 1, 8})
	f.Fuzz(func(t *testing.T, base uint8, units uint16, buffer uint8, batches []byte) {
		d, extra := fuzzCorpus()
		records := append(slices.Clone(d.Records), extra...)
		m := 10 + int(base)%(len(d.Records)-10)
		ix, err := BuildIndex(&dataset.Dataset{Records: records[:m]}, Options{BudgetUnits: int(units), BufferBits: []int{0, 64, 192}[buffer%3], Seed: testSeed})
		if err != nil {
			t.Skip(err) // a budget the buffers take whole
		}
		checkPostings(t, ix, "built")
		for _, b := range batches {
			n := min(int(b)%16, len(records)-m)
			ix.AddRecords(records[m : m+n])
			m += n
			checkPostings(t, ix, fmt.Sprintf("%d records", m))
		}
		loaded := reload(t, ix, "grown")
		if got, want := listsOf(t, loaded), listsOf(t, ix); len(got) != len(want) {
			t.Fatalf("the reload lists %d elements, the grown index %d", len(got), len(want))
		} else {
			for e, ids := range want {
				if !slices.Equal(got[e], ids) {
					t.Fatalf("element %d: the reload lists %v, the grown index %v", e, got[e], ids)
				}
			}
		}
	})
}
