package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbkmv/internal/bitmap"
	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// Differential tests for the build (selectCut + derive): the parallel build
// must be bit-identical — τ, summaries, buffers, posting lists, bit columns — to
// the sequential seed algorithm it replaced (threshold from a sorted O(n)
// key slice, per-record gkmv.BuildHashes at the index's public Tau(),
// rehashing buildPostings), regardless of seed or worker count.

// refState is the output of the pre-pipeline sequential build, derived from
// the index's record set and buffered-element choice (both of which are
// seed-deterministic and shared with the pipeline).
type refState struct {
	records        []dataset.Record // the records the reference was built from
	cut            uint32
	runs           [][]uint32
	complete       []bool
	buffers        []*bitmap.Bitmap
	postings       map[hash.Element][]int32
	bufferPostings [][]int32
}

// recordsOf decodes ix's records from its packed store (not through the
// Records() shim, which would leave a materialised copy behind).
func recordsOf(ix *Index) []dataset.Record { return ix.recs.All() }

// arenaBit reports whether record i's buffer row holds bit, columnBit whether
// column bit holds record id: the two layouts the differential checks read.
func arenaBit(ix *Index, i, bit int) bool {
	return ix.bufArena.record(i)[bit/8]&(1<<(uint(bit)%8)) != 0
}

func columnBit(ix *Index, bit, id int) bool {
	return ix.bufCols.rows.Row(id / bufWordBits)[bit]&(1<<(uint(id)%bufWordBits)) != 0
}

// blockWords returns the words the bit columns of m records and h buffer bits
// take: a word a column and 64-record block.
func blockWords(m, h int) int { return h * ((m + bufWordBits - 1) / bufWordBits) }

// ones lists a bitmap's set bits, ascending.
func ones(b *bitmap.Bitmap) []int {
	var out []int
	for i := 0; i < b.Len(); i++ {
		if bitSet(b, i) {
			out = append(out, i)
		}
	}
	return out
}

// bitSet reports whether b holds bit i.
func bitSet(b *bitmap.Bitmap, i int) bool {
	return b.Word(i/bufWordBits)&(1<<(uint(i)%bufWordBits)) != 0
}

// columnIDs lists, ascending, the records whose column holds bit: the
// inverted list the column replaced. It fails the test on a set bit at or past
// the record count, where every column must be clear.
func columnIDs(t *testing.T, ix *Index, bit int) []int32 {
	t.Helper()
	ids := []int32{}
	for id := 0; id < ix.bufCols.rows.Len()*bufWordBits; id++ {
		if columnBit(ix, bit, id) {
			if id >= ix.recs.Len() {
				t.Fatalf("column %d holds record %d of %d", bit, id, ix.recs.Len())
			}
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// refCut re-derives the threshold the old way: from the full sorted slice of
// non-buffered occurrence keys and the index's budget.
func refCut(ix *Index) uint32 {
	var all []uint32
	for _, rec := range recordsOf(ix) {
		for _, e := range rec {
			if _, buffered := ix.bitOf.lookup(e); !buffered {
				all = append(all, hash.Key32(e, ix.opt.Seed))
			}
		}
	}
	gBudget := ix.budget - bufferUnits(ix.recs.Len(), ix.bufferBits)
	if gBudget >= len(all) {
		return math.MaxUint32
	}
	slices.Sort(all)
	return all[gBudget-1]
}

// refBuild replays the sequential seed algorithm over the index's records at
// the given cut. Runs come from gkmv.BuildHashes at τ = KeyUnit(cut) — the
// public route the benchmark's kernel views take — so the comparison also
// pins that τ round-trips to exactly the index's own runs.
func refBuild(ix *Index, cut uint32) refState {
	seed := ix.opt.Seed
	tau := hash.KeyUnit(cut)
	st := refState{records: recordsOf(ix), cut: cut, postings: map[hash.Element][]int32{}}
	for i, rec := range st.records {
		var buf *bitmap.Bitmap
		if ix.bufferBits > 0 {
			buf = bitmap.New(ix.bufferBits)
		}
		rest := rec[:0:0]
		for _, e := range rec {
			if bit, ok := ix.bitOf.lookup(e); ok {
				buf.Set(bit)
				continue
			}
			rest = append(rest, e)
		}
		run, complete := gkmv.BuildHashes(rest, tau, seed)
		st.runs = append(st.runs, run)
		st.complete = append(st.complete, complete)
		st.buffers = append(st.buffers, buf)
		for _, e := range rest {
			if hash.Key32(e, seed) <= cut {
				st.postings[e] = append(st.postings[e], int32(i))
			}
		}
	}
	st.bufferPostings = make([][]int32, ix.bufferBits)
	for i, buf := range st.buffers {
		if buf == nil {
			continue
		}
		for _, bit := range ones(buf) {
			st.bufferPostings[bit] = append(st.bufferPostings[bit], int32(i))
		}
	}
	return st
}

// checkAgainstRef asserts every signature structure of ix equals the
// sequential reference, bit for bit.
func checkAgainstRef(t *testing.T, ix *Index, ref refState, label string) {
	t.Helper()
	if ix.cut != ref.cut {
		t.Fatalf("%s: cut = %v, reference %v", label, ix.cut, ref.cut)
	}
	keys := 0
	for i := 0; i < ix.recs.Len(); i++ {
		want := gkmv.MakeView(ref.runs[i], ref.complete[i])
		if got := ix.summaryOf(i).gkmv(); got != want.Summary() {
			t.Fatalf("%s: record %d summary %+v, reference %+v", label, i, got, want.Summary())
		}
		if got := ix.recs.AppendRecord(nil, i); !slices.Equal(got, ref.records[i]) {
			t.Fatalf("%s: record %d retained as %v, reference %v", label, i, got, ref.records[i])
		}
		keys += len(ref.runs[i])
		if ix.bufferBits > 0 {
			for bit := 0; bit < ix.bufferBits; bit++ {
				if arenaBit(ix, i, bit) != bitSet(ref.buffers[i], bit) {
					t.Fatalf("%s: record %d buffer bit %d differs", label, i, bit)
				}
			}
		}
	}
	if ix.keys != keys {
		t.Fatalf("%s: Σk = %d, reference %d", label, ix.keys, keys)
	}
	lists := listsOf(t, ix)
	for e, ids := range lists {
		if want := ref.postings[e]; !slices.Equal(ids, want) {
			t.Fatalf("%s: postings[%d] = %v, reference %v", label, e, ids, want)
		}
	}
	if len(lists) != len(ref.postings) {
		t.Fatalf("%s: %d posting keys, reference %d", label, len(lists), len(ref.postings))
	}
	// The reference's per-bit lists are over r bits, the columns over the
	// |E_H| ≤ r an element can set; a bit past them has no record.
	for bit, want := range ref.bufferPostings {
		if bit >= len(ix.bufferElems) {
			if len(want) != 0 {
				t.Fatalf("%s: reference lists %d records under bit %d of %d", label, len(want), bit, len(ix.bufferElems))
			}
			continue
		}
		if got := columnIDs(t, ix, bit); !slices.Equal(got, want) {
			t.Fatalf("%s: column %d holds %v, reference list %v", label, bit, got, want)
		}
	}
}

func buildTestDataset(t *testing.T, seed int64, m int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: m, Universe: 6000,
		AlphaFreq: 1.1, AlphaSize: 2.3,
		MinSize: 15, MaxSize: 250,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildMatchesSequentialReference(t *testing.T) {
	for _, seed := range []int64{7, 404, 90210} {
		for _, opt := range []Options{
			{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: uint64(seed)},
			{BudgetFraction: 0.08, BufferBits: NoBuffer, Seed: testSeed},
			{BudgetFraction: 0.15, BufferBits: 64, Seed: testSeed},
		} {
			d := buildTestDataset(t, seed, 220)
			ix, err := BuildIndex(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, ix, refBuild(ix, refCut(ix)), "fresh build")
		}
	}
}

func TestBuildWorkerCountInvariance(t *testing.T) {
	defer func() { forcedBuildWorkers = 0 }()
	d := buildTestDataset(t, 33, 310)
	forcedBuildWorkers = 1
	seq, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref := refBuild(seq, refCut(seq))
	for _, w := range []int{2, 3, 5, 8, 13, 64} {
		forcedBuildWorkers = w
		ix, err := BuildIndex(d, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		if ix.cut != seq.cut {
			t.Fatalf("workers=%d: cut = %v, sequential %v", w, ix.cut, seq.cut)
		}
		checkAgainstRef(t, ix, ref, "workers")
	}
}

func TestAddRecordsShrinkMatchesResketch(t *testing.T) {
	// A batch insert that forces a threshold shrink now trims arena runs and
	// filters posting lists in place; the result must equal a from-scratch
	// sequential resketch of the grown collection at the shrunken τ.
	d := buildTestDataset(t, 55, 200)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	tauBefore := ix.Tau()
	extra := buildTestDataset(t, 56, 140)
	ix.AddRecords(extra.Records)
	if ix.Tau() >= tauBefore {
		t.Fatalf("batch insert did not shrink τ (%v → %v); fixture too small", tauBefore, ix.Tau())
	}
	ref := refBuild(ix, ix.cut)
	checkAgainstRef(t, ix, ref, "post-shrink")

	// Sequential inserts of the same records must converge on the identical
	// state (journal-replay determinism).
	forcedBuildWorkers = 1
	defer func() { forcedBuildWorkers = 0 }()
	seq, err := BuildIndex(buildTestDataset(t, 55, 200), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range extra.Records {
		seq.AddRecords([]dataset.Record{rec})
	}
	if seq.Tau() != ix.Tau() {
		t.Fatalf("sequential inserts τ = %v, batch %v", seq.Tau(), ix.Tau())
	}
	checkAgainstRef(t, seq, ref, "sequential-inserts")
}

func TestAddRecordsSlackShrinksAreSequenceDeterministic(t *testing.T) {
	// At a budget large enough for a non-zero amortisation slack, the state
	// after k inserts must be a function of the record sequence alone: one
	// by one, one batch, and an arbitrary regrouping all land on the same
	// bits, and after every shrink the index is a from-scratch sketch of
	// (records, E_H, τ).
	build := func() *Index {
		ix, err := BuildIndex(buildTestDataset(t, 71, 2000), defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	extra := buildTestDataset(t, 72, 300).Records

	seq := build()
	budget := seq.BudgetUnits()
	slack := budget / shrinkSlackDivisor
	if slack == 0 {
		t.Fatalf("budget %d gives no slack; fixture too small", budget)
	}
	// tiesAt counts the stored keys equal to cut: the length of its tie run.
	tiesAt := func(cut uint32) int {
		n := 0
		for _, v := range storedKeys(t, seq) {
			if v == cut {
				n++
			}
		}
		return n
	}
	for i, rec := range extra {
		_, before := seq.BuildCounters()
		// A shrink that finds the cut inside a tie run evicts the run whole:
		// it may undershoot the slack by that run (plus the occurrence this
		// record may add to it).
		evictable := tiesAt(seq.cut) + 1
		seq.AddRecords([]dataset.Record{rec})
		_, after := seq.BuildCounters()
		used := seq.UsedUnits()
		// A tie run at the cut stays whole, so the index may sit over
		// budget by at most the other members of that run.
		if ties := tiesAt(seq.cut); used > budget && used-budget >= ties {
			t.Fatalf("insert %d: %d units used, budget %d, tie run %d", i, used, budget, ties)
		}
		if after == before {
			continue
		}
		if used < budget-slack-evictable {
			t.Fatalf("insert %d: shrink left %d units, under budget %d - slack %d - evicted run %d", i, used, budget, slack, evictable)
		}
		checkAgainstRef(t, seq, refBuild(seq, seq.cut), "after shrink")
	}
	_, shrinks := seq.BuildCounters()
	if shrinks < 3 {
		t.Fatalf("%d shrinks over %d inserts; fixture too small", shrinks, len(extra))
	}
	if int(shrinks)*4 > len(extra) {
		t.Fatalf("%d shrinks over %d inserts: the slack does not amortise", shrinks, len(extra))
	}

	ref := refBuild(seq, seq.cut)
	batch := build()
	batch.AddRecords(extra)
	checkAgainstRef(t, batch, ref, "one batch")
	regrouped := build()
	rng := rand.New(rand.NewSource(73))
	for rest := extra; len(rest) > 0; {
		n := 1 + rng.Intn(17)
		if n > len(rest) {
			n = len(rest)
		}
		regrouped.AddRecords(rest[:n])
		rest = rest[n:]
	}
	checkAgainstRef(t, regrouped, ref, "regrouped")
	for _, ix := range []*Index{batch, regrouped} {
		if _, got := ix.BuildCounters(); got != shrinks {
			t.Fatalf("%d shrinks, one-by-one %d", got, shrinks)
		}
	}
}

// TestAddRecordsTieRunOnCutIsEvicted: without a buffer the most popular
// element's occurrences share one key, the build's order statistic lands
// inside that run, and every later selection lands on it again. The shrink
// must evict the run whole instead of declining while inserts take the index
// arbitrarily far over budget: after every insert the index is over budget
// by less than its longest run, and it stays a from-scratch sketch of
// (records, E_H, τ) however the inserts are grouped.
func TestAddRecordsTieRunOnCutIsEvicted(t *testing.T) {
	for _, seed := range []int64{5, 9} {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 320, Universe: 2000,
			AlphaFreq: 1.2, AlphaSize: 2.5,
			MinSize: 10, MaxSize: 100,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		build := func() *Index {
			ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:260], Universe: d.Universe},
				Options{BudgetFraction: 0.10, BufferBits: NoBuffer, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		ix := build()
		budget := ix.BudgetUnits()
		for i, rec := range d.Records[260:] {
			ix.AddRecords([]dataset.Record{rec})
			runs, longest := map[uint32]int{}, 0
			for _, v := range storedKeys(t, ix) {
				runs[v]++
				longest = max(longest, runs[v])
			}
			if used := ix.UsedUnits(); used > budget+longest {
				t.Fatalf("seed %d, insert %d: %d units used, budget %d, longest run %d", seed, i, used, budget, longest)
			}
		}
		_, shrinks := ix.BuildCounters()
		if shrinks == 0 {
			t.Fatalf("seed %d: no shrink over 60 inserts into a full budget (%d units used, budget %d)", seed, ix.UsedUnits(), budget)
		}
		checkAgainstRef(t, ix, refBuild(ix, ix.cut), "one by one")
		batch := build()
		batch.AddRecords(d.Records[260:])
		checkAgainstRef(t, batch, refBuild(ix, ix.cut), "one batch")
	}
}

func TestBuildTauShortCircuit(t *testing.T) {
	// With the budget covering every remaining occurrence, τ must be exactly
	// 1 (decided from the occurrence count, no order statistic) and every
	// sketch complete.
	d := buildTestDataset(t, 11, 80)
	ix, err := BuildIndex(d, Options{BudgetFraction: 1.0, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tau() != 1 {
		t.Fatalf("τ = %v, want 1", ix.Tau())
	}
	for i := 0; i < ix.recs.Len(); i++ {
		if !ix.summaryOf(i).gkmv().Complete {
			t.Fatalf("record %d not complete at τ=1", i)
		}
	}
}

// storedKeys returns every kept key, one a listed id: each listed element's
// key as many times as its list names records.
func storedKeys(t *testing.T, ix *Index) []uint32 {
	var keys []uint32
	for e, ids := range listsOf(t, ix) {
		for range ids {
			keys = append(keys, hash.Key32(e, ix.opt.Seed))
		}
	}
	return keys
}

// kthOracle is what every selection is held to: the k-th smallest of the
// sorted multiset, and upper — the threshold that keeps every key — past its
// end.
func kthOracle(sorted []uint32, k int, upper uint32) uint32 {
	if k > len(sorted) {
		return upper
	}
	return sorted[k-1]
}

// collidingElements returns two element ids whose keys under seed collide.
func collidingElements(t *testing.T, seed uint64) (a, b hash.Element) {
	t.Helper()
	seen := map[uint32]hash.Element{}
	for e := hash.Element(0); e < 1<<22; e++ {
		key := hash.Key32(e, seed)
		if first, ok := seen[key]; ok {
			return first, e
		}
		seen[key] = e
	}
	t.Fatal("no two keys collide")
	return 0, 0
}

// TestKthSmallestMatchesSort holds the weighted selection to a sort: on
// (key, count) tables, through the build's selectCut, and through a shrink's
// pairs of the listed elements.
func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// The weighted form on (key, count) tables, keys spread over the key
	// space or crowded into one bucket, repeated across pairs.
	for trial := 0; trial < 50; trial++ {
		pairs := make([]keyCount, 1+rng.Intn(500))
		var multiset []uint32
		for i := range pairs {
			key := rng.Uint32()
			if trial%2 == 1 {
				key = 0x12345678 + uint32(rng.Intn(64)) // one bucket
			}
			if rng.Intn(4) == 0 && i > 0 {
				key = pairs[rng.Intn(i)].key // a colliding pair
			}
			pairs[i] = keyCount{key, uint32(1 + rng.Intn(30))}
			for range pairs[i].n {
				multiset = append(multiset, key)
			}
		}
		slices.Sort(multiset)
		for _, k := range []int{1, 1 + rng.Intn(len(multiset)), len(multiset), len(multiset) + 1} {
			if got, want := new(kthSelector).kthWeighted(pairs, k), kthOracle(multiset, k, math.MaxUint32); got != want {
				t.Fatalf("weighted trial %d: k=%d of %d: got %v, want %v", trial, k, len(multiset), got, want)
			}
		}
	}

	// The build's form, through selectCut: {key(e) × freq[e]} over the
	// non-buffered elements of a random frequency table, held to the same
	// oracle. Two of the elements share a key; k runs from 1 through the
	// middle of the heaviest element's run to past the total; some elements
	// are buffered, and in the last trial every one.
	const seed = 77
	a, b := collidingElements(t, seed)
	for trial := 0; trial < 30; trial++ {
		freq := make([]int, max(a, b)+1)
		var present []hash.Element
		for e := hash.Element(0); e < 3000; e++ {
			if rng.Intn(3) == 0 {
				present = append(present, e)
			}
		}
		present = append(present, a, b)
		for _, e := range present {
			freq[e] = 1 + rng.Intn(40)
		}
		var buffered []hash.Element
		if trial == 29 {
			buffered = present
		} else {
			for _, e := range present[:len(present)-2] {
				if rng.Intn(10) == 0 {
					buffered = append(buffered, e)
				}
			}
		}
		ix := &Index{opt: Options{Seed: seed}, bitOf: newBitTable(buffered)}
		var multiset []uint32
		heaviest, heavy := uint32(0), 0
		for _, e := range present {
			if _, in := ix.bitOf.lookup(e); in {
				continue
			}
			key := hash.Key32(e, seed)
			for range freq[e] {
				multiset = append(multiset, key)
			}
			if freq[e] > heavy {
				heaviest, heavy = key, freq[e]
			}
		}
		slices.Sort(multiset)
		first, _ := slices.BinarySearch(multiset, heaviest)
		straddling := first + heavy/2 + 1 // inside the heaviest run, not at its ends when it is 3 long or more
		for _, k := range []int{1, straddling, len(multiset), len(multiset) + 1} {
			if k < 1 {
				continue
			}
			if got, want := ix.selectCut(freq, &elemCounters{}, k), kthOracle(multiset, k, math.MaxUint32); got != want {
				t.Fatalf("selectCut trial %d: k=%d of %d: got %v, want %v", trial, k, len(multiset), got, want)
			}
		}
		if trial == 29 && len(multiset) != 0 {
			t.Fatalf("every element buffered, %d keys left", len(multiset))
		}
	}

	// The shrink's form: the listed elements' (key, ids) pairs — unused list
	// numbers among them, after shrinks — select from every kept key.
	ix, err := BuildIndex(buildTestDataset(t, 31, 300), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	ix.AddRecords(buildTestDataset(t, 32, 200).Records)
	if _, shrinks := ix.BuildCounters(); shrinks == 0 || ix.postings.free == 0 {
		t.Fatalf("%d shrinks, no unused list number: fixture too small", shrinks)
	}
	kept := storedKeys(t, ix)
	slices.Sort(kept)
	pairs := ix.postings.keyCounts(nil, ix.opt.Seed)
	for _, k := range []int{1, 1 + rng.Intn(len(kept)), len(kept), len(kept) + 1} {
		if got, want := new(kthSelector).kthWeighted(pairs, k), kthOracle(kept, k, math.MaxUint32); got != want {
			t.Fatalf("listed pairs: k=%d of %d: got %v, want %v", k, len(kept), got, want)
		}
	}
}

// TestBuildSparseIDsAllocatesByOccurrences: the frequency table the cost
// model, the choice of E_H and selectCut read is by counter position, so one
// element id of 2⁴⁰ costs a build what one of 1 000 does, within 2× — not a
// table over every id below it (8 TB) — and chooses the same r, E_H and τ.
func TestBuildSparseIDsAllocatesByOccurrences(t *testing.T) {
	build := func(outlier hash.Element) (*Index, uint64) {
		zipf := rand.NewZipf(rand.New(rand.NewSource(5)), 1.1, 2, 999)
		records := make([]dataset.Record, 1000)
		for i := range records {
			elems := make([]hash.Element, 20)
			for j := range elems {
				elems[j] = hash.Element(zipf.Uint64())
			}
			records[i] = dataset.NewRecord(elems)
		}
		records[500] = dataset.NewRecord(append(slices.Clone(records[500]), outlier))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := BuildIndex(&dataset.Dataset{Records: records}, Options{Seed: testSeed})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return ix, after.TotalAlloc - before.TotalAlloc
	}
	dense, denseBytes := build(1000)
	sparse, sparseBytes := build(1 << 40)
	if sparseBytes > 2*denseBytes {
		t.Errorf("a build holding element 2⁴⁰ allocated %d bytes, one holding 1 000 %d", sparseBytes, denseBytes)
	}
	if sparse.BufferBits() != dense.BufferBits() || sparse.cut != dense.cut || !slices.Equal(sparse.bufferElems, dense.bufferElems) || len(sparse.bufferElems) == 0 {
		t.Errorf("r, τ = %d, %v with 2⁴⁰ and %d, %v with 1 000 (%d buffered)",
			sparse.BufferBits(), sparse.Tau(), dense.BufferBits(), dense.Tau(), len(sparse.bufferElems))
	}
}

// TestBuildAndLoadHashCounts: a build and a load hash elements, not
// occurrences — at most one hash a distinct element to select τ (a build
// only), one to classify it, and one a kept occurrence to store its key —
// where hashing every non-buffered occurrence to classify it came to several
// times the elements.
func TestBuildAndLoadHashCounts(t *testing.T) {
	d := buildTestDataset(t, 12, 2000)
	recs, err := snapfmt.PackRecords(d.Records, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildPacked(recs, Options{BufferBits: AutoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	top, occurrences := ix.recs.Top(), ix.recs.Elements()
	if !denseIDs(top, occurrences) || ix.Tau() == 1 || occurrences < 4*(int(top)+1) {
		t.Fatalf("fixture: top %d, %d occurrences, τ = %v", top, occurrences, ix.Tau())
	}
	bound := uint64(2*(int(top)+1) + ix.keys)
	for name, got := range map[string]*Index{"built": ix, "loaded": reload(t, ix, "loaded")} {
		if hashed, _ := got.BuildCounters(); hashed > bound {
			t.Errorf("%s: %d keys hashed for %d element ids and %d kept occurrences (of %d), want ≤ %d",
				name, hashed, top+1, got.keys, occurrences, bound)
		}
	}
}

// TestDeriveSparseCounters: the counters of sparse ids count what a map
// counts — 0 and the largest 64-bit id among the elements — through enough
// distinct elements to double their table several times, find every element
// at its position afterwards, miss an element never counted, and visit every
// counter once.
func TestDeriveSparseCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	elems := []hash.Element{0, ^hash.Element(0)}
	for len(elems) < 20000 {
		elems = append(elems, hash.Element(rng.Uint64()))
	}
	cnt := newElemCounters(^hash.Element(0), 1)
	if cnt.index == nil {
		t.Fatal("fixture takes the dense layout")
	}
	want := map[hash.Element]uint32{}
	for i := 0; i < 100000; i++ {
		e := elems[i%len(elems)]
		if i >= len(elems) {
			e = elems[rng.Intn(len(elems))]
		}
		cnt.n[cnt.slot(e)]++
		want[e]++
	}
	got := map[hash.Element]uint32{}
	cnt.each(func(pos int, e hash.Element) {
		if _, seen := got[e]; seen {
			t.Fatalf("element %d visited twice", e)
		}
		got[e] = cnt.n[pos]
		if at, ok := cnt.index.lookup(e); !ok || at != pos {
			t.Fatalf("element %d at %d, %v; visited at %d", e, at, ok, pos)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("%d counters visited, %d elements counted", len(got), len(want))
	}
	for e, n := range want {
		if got[e] != n {
			t.Fatalf("element %d counted %d times, want %d", e, got[e], n)
		}
	}
	if _, ok := cnt.index.lookup(12345); ok {
		t.Fatal("an element never counted has a position")
	}
}

// TestPostingLimit drives the posting lists' 32-bit bound through a stubbed
// limit rather than 8 GB of slots: a build that would lay that many ids is an
// error, an insert that could reach it panics with the bound in the message,
// and a stream declaring it is corrupt.
func TestPostingLimit(t *testing.T) {
	d := buildTestDataset(t, 11, 80)
	opt := Options{BudgetFraction: 1.0, BufferBits: NoBuffer, Seed: testSeed}
	ix, err := BuildIndex(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.Save(&saved); err != nil {
		t.Fatal(err)
	}
	units := ix.keys
	defer func(old int) { postingLimit = old }(postingLimit)

	postingLimit = units // one id too many
	if _, err := BuildIndex(d, opt); err == nil || !strings.Contains(err.Error(), "32-bit positions") {
		t.Errorf("BuildIndex laying %d ids at limit %d: %v", units, postingLimit, err)
	}
	if _, err := Load(bytes.NewReader(saved.Bytes())); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("Load of %d ids at limit %d: %v", units, postingLimit, err)
	}

	postingLimit = units + 1 // the build fits exactly
	if _, err := BuildIndex(d, opt); err != nil {
		t.Fatalf("BuildIndex laying %d ids at limit %d: %v", units, postingLimit, err)
	}
	// The tails hold nothing yet: an insert of n elements may take them to
	// tailBound(n), and one more slot than that fits.
	rec := d.Records[0]
	postingLimit = ix.postings.tailBound(len(rec)) + 1
	ix.AddRecords([]dataset.Record{rec})
	postingLimit = ix.postings.tailBound(len(rec))
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "32-bit positions") {
				t.Errorf("AddRecord past the limit: recovered %q", msg)
			}
		}()
		ix.AddRecords([]dataset.Record{rec})
		t.Error("AddRecord past the limit did not panic")
	}()
	if ix.NumRecords() != 81 {
		t.Errorf("%d records after the refused insert, want 81", ix.NumRecords())
	}
}
