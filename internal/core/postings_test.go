package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
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

// appendIDs appends the ids of a list to dst.
func (p *postingLists) appendIDs(dst []int32, h *listHead) []int32 {
	run, tail := p.read(h)
	id := int32(-1)
	for s := run; ; s = tail.slots {
		for i := 0; i < len(s); i++ {
			g := int32(s[i])
			if g == 0 {
				g, i = escaped(s, i)
			}
			id += g
			dst = append(dst, id)
		}
		if !tail.more() {
			return dst
		}
	}
}

// tailSlots returns the slots the live tails' blocks take, links and room
// included, and the room alone of each tail's last block.
func tailSlots(p *postingLists) (slots, room int) {
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.tn <= inlineSlots {
			continue
		}
		last, fill := blockOf(int(h.tn - 1))
		for k := 0; k <= last; k++ {
			slots += blockSize(k)
		}
		room += blockSize(last) - linkSlots - (fill + 1)
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
	if slots, _ := tailSlots(&ix.postings); ix.postings.tails.Len() != slots {
		t.Fatalf("%s: the tail store holds %d slots, the live tails take %d", label, ix.postings.tails.Len(), slots)
	}
}

// growWithShrinks builds an index of base's records and inserts the others in
// batches of 1 to maxBatch records, checking the lists after every batch.
func growWithShrinks(t *testing.T, records []dataset.Record, base int, opt Options, rng *rand.Rand, maxBatch int, label string) (ix *Index, relaid bool) {
	t.Helper()
	ix, err := BuildIndex(&dataset.Dataset{Records: records[:base]}, opt)
	built := len(ix.postings.slab)
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
	return ix, len(ix.postings.slab) < built
}

// TestPostingsUnderInserts: under random insert schedules that shrink the
// threshold, at r ∈ {0, 64, 192}, every list — its derive-laid run, then its
// tail — is the list a brute-force rebuild from (records, E_H, τ) gives, after
// every batch; the tail store holds nothing but live blocks; and the grown
// index's lists are its reload's. The tightest budget takes τ low enough that
// the slab is re-laid.
func TestPostingsUnderInserts(t *testing.T) {
	d := buildTestDataset(t, 31, 700)
	relays := 0
	for _, r := range []int{NoBuffer, 64, 192} {
		for _, units := range []int{0, 20000, 6000} { // the default budget, then two that inserts overrun
			for seed := int64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("r=%d, %d units, seed %d", r, units, seed)
				rng := rand.New(rand.NewSource(seed))
				ix, relaid := growWithShrinks(t, d.Records, 200+rng.Intn(100), Options{BudgetUnits: units, BufferBits: r, Seed: testSeed}, rng, 12, label)
				if relaid {
					relays++
				}
				loaded := reload(t, ix, label)
				sameDerived(t, loaded, ix, label+", reloaded")
				checkPostings(t, loaded, label+", reloaded")
			}
		}
	}
	if relays == 0 {
		t.Fatal("no schedule shrank the threshold far enough to re-lay a slab")
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
	const chunkSlots = 64 << 10 / 2
	peak := 0
	for i := 1200; i < len(d.Records); i += 3 {
		ix.AddRecords(d.Records[i : i+3])
		slots, room := tailSlots(&ix.postings)
		capacity, chunks := tailCapacity(ix), len(ix.postings.tails.Chunks())
		if held := slots - room; capacity > held+chunkSlots+room+chunks*blockCap {
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
// derive laid live, the live runs are copied to a slab of their exact size and
// the old one is let go: the lists are unchanged, no tail moves, and the slab
// and the tails take less room than before.
func TestPostingsReleaseTheSlab(t *testing.T) {
	d := buildTestDataset(t, 47, 3000)
	ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:1000]}, Options{BudgetUnits: 30000, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	built, before, tails := len(ix.postings.slab), 0, 0
	for i := 1000; i < len(d.Records) && len(ix.postings.slab) == built; i++ {
		before, tails = len(ix.postings.slab)+tailCapacity(ix), ix.postings.tails.Len()
		ix.AddRecords(d.Records[i : i+1])
		if p := &ix.postings; 2*p.slabLive < len(p.slab) {
			t.Fatalf("after record %d: %d of the slab's %d slots live, and it is kept", i, p.slabLive, len(p.slab))
		}
	}
	p := &ix.postings
	if len(p.slab) == built {
		t.Fatalf("the inserts left %d of the slab's %d slots live: the fixture does not re-lay it", p.slabLive, built)
	}
	checkPostings(t, ix, "re-laid")
	after := len(p.slab) + tailCapacity(ix)
	t.Logf("slab of %d slots re-laid at %d at τ = %.3f: room for %d slots in the slab and the tails before, %d after", built, len(p.slab), ix.Tau(), before, after)
	if len(p.slab) != p.slabLive || cap(p.slab) != len(p.slab) || p.tails.Len() > tails+blockCap || after >= before {
		t.Fatalf("slab of %d slots (room for %d) holding %d live, tails of %d slots from %d: room for %d slots, %d before",
			len(p.slab), cap(p.slab), p.slabLive, p.tails.Len(), tails, after, before)
	}
	sameDerived(t, reload(t, ix, "re-laid"), ix, "re-laid")
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
				if first, in := want[x*0x10001]; (h != nil) != in || (in && (h.e != x*0x10001 || p.appendIDs(nil, h)[0] != first)) {
					t.Fatalf("round %d, op %d: element %d finds %+v, want a list from %d: %v", round, op, x, h, first, in)
				}
			}
		}
	}
}

// checkSummaries asserts that every record's summary is the one a
// brute-force sketch of (record, E_H, τ) gives, and that the units used beside
// the buffers are Σk, the number of ids the lists hold.
func checkSummaries(t *testing.T, ix *Index, label string) {
	t.Helper()
	keys := 0
	for i, rec := range recordsOf(ix) {
		var rest dataset.Record
		for _, e := range rec {
			if _, buffered := ix.bitOf.lookup(e); !buffered {
				rest = append(rest, e)
			}
		}
		run, complete := gkmv.BuildHashes(rest, ix.Tau(), ix.opt.Seed)
		if got, want := ix.summaryOf(i).gkmv(), gkmv.MakeView(run, complete).Summary(); got != want {
			t.Fatalf("%s: record %d summary %+v, sketched %+v", label, i, got, want)
		}
		keys += len(run)
	}
	ids := 0
	for _, list := range listsOf(t, ix) {
		ids += len(list)
	}
	if used := ix.UsedUnits() - bufferUnits(ix.NumRecords(), ix.bufferBits); used != keys || ix.keys != keys || ids != keys {
		t.Fatalf("%s: %d units beside the buffers, Σk = %d, %d ids listed; the records' sketches hold %d keys", label, used, ix.keys, ids, keys)
	}
}

// FuzzPostingsUnderInserts is TestPostingsUnderInserts on fuzz-chosen
// schedules and options: the base's size (one record up), BudgetUnits,
// BufferBits and BudgetFraction, extremes included, and the batch sizes. A
// build either fails with one of the named refusals (buildRefusals) or
// yields an index that saves, loads and saves to the same bytes, whose E_H is
// the r most frequent elements (ties to the smaller id) and whose Search
// equals Algorithm 2 on a few queries. The lists and the summaries are
// checked against the brute-force rebuild after every batch (and the tails
// against the bound AddRecords checked before it), the lists against the
// reload at the end. CI runs it briefly (-fuzz FuzzPostingsUnderInserts
// -fuzztime 15s).
func FuzzPostingsUnderInserts(f *testing.F) {
	f.Add(uint8(100), 0, 64, 0.0, []byte{1, 2, 3, 4})
	f.Add(uint8(20), 300, 192, 0.0, []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(250), 2000, NoBuffer, 0.0, []byte{15, 1, 15, 1, 15})
	f.Add(uint8(60), 800, 64, 0.0, []byte{0, 0, 3, 9, 2, 11, 5, 5, 5, 14, 1, 8})
	// Four records under options the build once took and Load refused (or
	// Save failed on): a buffer charge that wrapped, an r past Load's bound,
	// an r that wrapped as it rounded; and a budget of one unit.
	f.Add(uint8(3), 64, 1<<62, 0.0, []byte{1})
	f.Add(uint8(3), 1<<50, 1<<40, 0.0, []byte{1})
	f.Add(uint8(3), 64, math.MaxInt, 0.0, []byte{1})
	f.Add(uint8(3), 1, AutoBuffer, 0.0, []byte{1})
	f.Add(uint8(3), 0, AutoBuffer, math.NaN(), []byte{1})
	f.Fuzz(func(t *testing.T, base uint8, units, bufferBits int, fraction float64, batches []byte) {
		d, extra := fuzzCorpus()
		records := append(slices.Clone(d.Records), extra...)
		m := 1 + int(base)%len(d.Records)
		ix, err := BuildIndex(&dataset.Dataset{Records: records[:m]},
			Options{BudgetFraction: fraction, BudgetUnits: units, BufferBits: bufferBits, Seed: testSeed})
		if err != nil {
			if !slices.ContainsFunc(buildRefusals, func(r string) bool { return strings.HasPrefix(err.Error(), r) }) {
				t.Fatalf("a build error that is no named refusal: %v", err)
			}
			return
		}
		if want := topFrequent(records[:m], ix.BufferBits()); !slices.Equal(ix.BufferElements(), want) {
			t.Fatalf("r = %d: E_H %v, the most frequent elements %v", ix.BufferBits(), ix.BufferElements(), want)
		}
		reload(t, ix, "built")
		for _, q := range []dataset.Record{records[0], records[m-1], records[len(records)-1]} {
			for _, tstar := range []float64{0.3, 0.7} {
				if got, want := ix.SearchSig(ix.Sketch(q), tstar), ix.SearchLinear(q, tstar); !slices.Equal(got, want) {
					t.Fatalf("t*=%v: Search finds %v, Algorithm 2 %v", tstar, got, want)
				}
			}
		}
		checkPostings(t, ix, "built")
		checkSummaries(t, ix, "built")
		for _, b := range batches {
			n := min(int(b)%16, len(records)-m)
			incoming := 0
			for _, rec := range records[m : m+n] {
				incoming += len(rec)
			}
			bound := ix.postings.tailBound(incoming)
			ix.AddRecords(records[m : m+n])
			m += n
			label := fmt.Sprintf("%d records", m)
			checkPostings(t, ix, label)
			checkSummaries(t, ix, label)
			if end := ix.postings.tails.End(); end > bound {
				t.Fatalf("%s: the tails end at %d, past the %d checked for %d ids", label, end, bound, incoming)
			}
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

// buildRefusals opens every error a build over sorted, non-empty records
// may return: the options a build refuses, each by name.
var buildRefusals = []string{
	"core: BudgetFraction ",
	"core: negative BudgetUnits ",
	"core: BufferBits ",
	"core: budget resolves to zero units",
}

// topFrequent is E_H by its definition: the r most frequent elements of the
// records, in decreasing frequency, a tie to the smaller id.
func topFrequent(records []dataset.Record, r int) []hash.Element {
	freq := map[hash.Element]int{}
	for _, rec := range records {
		for _, e := range rec {
			freq[e]++
		}
	}
	elems := slices.Collect(maps.Keys(freq))
	slices.SortFunc(elems, func(a, b hash.Element) int { return cmp.Or(cmp.Compare(freq[b], freq[a]), cmp.Compare(a, b)) })
	return elems[:min(r, len(elems))]
}

// TestPostingBytesPerID: at τ = 1 over more than 2¹⁶ records — where some
// gaps take an escape, in the slab derive lays from 32-bit ids and in the
// tails inserts add — the lists are the brute-force ones, grown and reloaded,
// and hold at most 2.1 bytes a listed id (4 while ids were int32).
func TestPostingBytesPerID(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: smallIDs + 5000, Universe: 400000, AlphaFreq: 1.1, AlphaSize: 2.5, MinSize: 3, MaxSize: 40,
	}, 71)
	if err != nil {
		t.Fatal(err)
	}
	const far = 400000 // past the universe: an element of the records at 10 and at 2¹⁶ + 20 alone
	records := slices.Clone(d.Records)
	for _, i := range []int{10, 1<<16 + 20} {
		records[i] = dataset.NewRecord(append(slices.Clone(records[i]), far))
	}
	// Eight more, all in the same six records either side of 2¹⁶: as a
	// query they make lists of equal length, each with an escape, which the
	// minimum count splits between touching and counting.
	var family dataset.Record
	for e := far + 1; e <= far+8; e++ {
		family = append(family, hash.Element(e))
	}
	for _, i := range []int{5, 10, 20, 1<<16 + 30, 1<<16 + 40, 1<<16 + 50} {
		records[i] = dataset.NewRecord(append(slices.Clone(records[i]), family...))
	}
	base, inserts := records[:smallIDs+1000], records[smallIDs+1000:]
	ix, err := BuildIndex(&dataset.Dataset{Records: base}, Options{BudgetUnits: 2 * len(d.Records) * 40, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	ix.AddRecords(inserts[:2000])
	ix.AddRecords([]dataset.Record{{far}}) // a gap of 2¹⁶ − 1 + 2000 … in a tail
	ix.AddRecords(inserts[2000:])
	if ix.Tau() != 1 {
		t.Fatalf("τ = %v: the fixture left its headroom", ix.Tau())
	}
	checkPostings(t, ix, "grown")
	loaded := reload(t, ix, "grown")
	sameDerived(t, loaded, ix, "reloaded")
	for _, x := range []*Index{ix, loaded} {
		p, ids, escapes := &x.postings, 0, 0
		for _, list := range listsOf(t, x) {
			ids += len(list)
			escapes += (gapSlots(list) - len(list)) / (escapeSlots - 1)
		}
		perID := float64(2*p.slots) / float64(ids)
		t.Logf("%d ids in %d lists, %d escaped: %d slots, %.3f bytes an id", ids, p.live, escapes, p.slots, perID)
		if ids != x.keys || escapes < 2 || perID > 2.1 {
			t.Fatalf("%d ids listed of %d keys, %d escaped, %.3f bytes an id: want every key listed, escapes, at most 2.1", ids, x.keys, escapes, perID)
		}
		// The search decodes escapes as the lists' reader does: the family,
		// and records across the id range, as queries, at thresholds that
		// touch every list and that only count the longer ones.
		queries := []dataset.Record{family}
		for _, i := range []int{10, 1<<16 + 20, x.NumRecords() - 1, 3000, 40000, 66000} {
			queries = append(queries, x.Record(i))
		}
		counted := 0
		for qi, q := range queries {
			for _, tstar := range []float64{0.3, 0.6, 0.9} {
				if checkGather(t, x, q, tstar, fmt.Sprintf("query %d, t*=%v", qi, tstar)) {
					counted++
				}
				if got, want := x.Search(q, tstar), x.SearchLinear(q, tstar); !slices.Equal(got, want) {
					t.Fatalf("query %d, t*=%v: Search finds %v, Algorithm 2 %v", qi, tstar, got, want)
				}
			}
		}
		if counted == 0 {
			t.Fatal("no query reached a minimum count of 2: the count pass went unchecked")
		}
	}
}

// checkGather runs a threshold search's candidate generation and requires of
// it every record the query's posting lists can qualify, touched, with its K∩
// counted exactly when the minimum count T is 2 or more. It reports whether T
// was.
func checkGather(t *testing.T, ix *Index, q dataset.Record, tstar float64, label string) bool {
	t.Helper()
	sig := ix.Sketch(q)
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	minCount := sig.minCount(tstar * float64(sig.Size))
	ix.gather(sig, minCount, sc)
	rest := map[hash.Element]bool{}
	for _, e := range sig.rest {
		rest[e] = true
	}
	touched := map[int32]bool{}
	for _, id := range sc.touched {
		touched[id] = true
	}
	for id := 0; id < ix.NumRecords(); id++ {
		k := int32(0)
		for _, e := range ix.Record(id) {
			if rest[e] {
				k++
			}
		}
		if k >= max(minCount, 1) && !touched[int32(id)] {
			t.Fatalf("%s: record %d shares %d of the query's lists, T = %d, and is not touched", label, id, k, minCount)
		}
		if touched[int32(id)] && minCount >= 2 && sc.counts[id] != k {
			t.Fatalf("%s: record %d counted %d of the query's lists, shares %d", label, id, sc.counts[id], k)
		}
	}
	return minCount >= 2
}

// FuzzPostingGaps drives postingLists alone against a map model: lay (16-bit
// ids in place or 32-bit ones), then add of ascending ids with fuzz-chosen
// jumps of up to 2³¹ — escapes in the header, across a block's room, in every
// block of a chain — filter at a fuzz-chosen cut, relay and compact. After
// every step each list decodes to the model's, the counts agree, and the tail
// store holds the live blocks and nothing else. CI runs it briefly (-fuzz
// FuzzPostingGaps -fuzztime 15s).
func FuzzPostingGaps(f *testing.F) {
	f.Add(false, []byte{0, 1, 1, 1, 2, 3, 0, 200}, []byte{0, 1, 16, 1, 1, 1, 0, 0, 2, 2, 16, 3, 9, 0, 0, 0})
	f.Add(true, []byte{3, 1, 3, 2, 3, 4, 5, 1}, []byte{0, 3, 0, 1, 0, 3, 16, 2, 0, 3, 0, 1, 7, 40, 0, 0, 8, 0, 0, 0})
	f.Add(false, []byte{}, []byte{0, 5, 23, 255, 0, 5, 16, 1, 0, 5, 0, 9, 0, 5, 17, 1, 7, 128, 0, 0, 0, 6, 16, 1})
	f.Fuzz(func(t *testing.T, small bool, laid, ops []byte) {
		elem := func(b byte) hash.Element { return hash.Element(b%16) * 0x9E3779B1 }
		jump := func(shift, c byte) int64 { return 1 + int64(c)<<(shift%24) }
		model := map[hash.Element][]int32{}
		var order []hash.Element // the laid elements, in slab order
		next := int64(-1)        // the largest id in the model
		for i := 0; i+1 < len(laid); i += 2 {
			e, prev := elem(laid[i]), int64(-1)
			if l := model[e]; len(l) > 0 {
				prev = int64(l[len(l)-1])
			} else {
				order = append(order, e)
			}
			if id := prev + jump(laid[i+1]/16, laid[i+1]%16); id <= math.MaxInt32 {
				model[e] = append(model[e], int32(id))
				next = max(next, id)
			}
		}
		var ids32 []int32
		ends := []uint32{}
		for _, e := range order {
			ids32 = append(ids32, model[e]...)
			ends = append(ends, uint32(len(ids32)))
		}
		var ids16 []uint16
		if small && next < smallIDs {
			for _, id := range ids32 {
				ids16 = append(ids16, uint16(id))
			}
			ids32 = nil
		}
		var p postingLists
		p.lay(ids16, ids32, len(order), func(list func(e hash.Element, end uint32)) {
			for i, e := range order {
				list(e, ends[i])
			}
		})
		check := func(step string) {
			t.Helper()
			slots := 0
			for e, want := range model {
				h := p.find(e)
				if h == nil {
					t.Fatalf("%s: element %d has no list, want %v", step, e, want)
				}
				if got := p.appendIDs(nil, h); !slices.Equal(got, want) || h.top != want[len(want)-1] {
					t.Fatalf("%s: element %d lists %v (largest %d), want %v", step, e, got, h.top, want)
				}
				if got := p.listSlots(h); got != gapSlots(want) {
					t.Fatalf("%s: element %d takes %d slots, its gaps %d", step, e, got, gapSlots(want))
				}
				slots += gapSlots(want)
			}
			tails, _ := tailSlots(&p)
			if p.live != len(model) || p.slots != slots || p.tails.Len() != tails {
				t.Fatalf("%s: %d lists, %d slots, a tail store of %d; want %d, %d, %d", step, p.live, p.slots, p.tails.Len(), len(model), slots, tails)
			}
			// A shrink selects its cut from keyCounts: a pair a list number,
			// the list's key and its ids.
			pairs := p.keyCounts(nil, testSeed)
			for l, pair := range pairs {
				h := p.heads.Ptr(l)
				if want := model[h.e]; h.n+h.tn == 0 && pair != (keyCount{}) ||
					h.n+h.tn > 0 && pair != (keyCount{hash.Key32(h.e, testSeed), uint32(len(want))}) {
					t.Fatalf("%s: list %d (element %d, %d ids): pair %+v", step, l, h.e, len(want), pair)
				}
			}
		}
		check("laid")
		for i := 0; i+3 < len(ops); i += 4 {
			kind, a, b, c := ops[i]%10, ops[i+1], ops[i+2], ops[i+3]
			step := fmt.Sprintf("op %d (%d %d %d %d)", i/4, kind, a, b, c)
			switch {
			case kind < 7:
				id := next + jump(b, c)
				if id > math.MaxInt32 {
					continue
				}
				e := elem(a)
				p.add(e, int32(id))
				model[e], next = append(model[e], int32(id)), id
			case kind == 7:
				cut := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8
				p.filter(p.keyCounts(nil, testSeed), cut)
				for e := range model {
					if hash.Key32(e, testSeed) > cut {
						delete(model, e)
					}
				}
			case kind == 8:
				p.relay()
			default:
				p.compact()
			}
			check(step)
		}
	})
}
