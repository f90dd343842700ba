package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// Tests for the bit columns: they are the buffer arena transposed, whatever
// path filled them, and candidate generation through them visits exactly the
// records the per-bit inverted lists they replaced would have — the reference
// builder of build_test.go still computes those lists, and stays the oracle.

// checkColumns asserts column bit ≡ row bit for every record and buffer bit,
// every column clear past the record count, and — where asked: a build leaves
// it so, inserts need not — the columns' popcounts non-increasing in the bit,
// E_H's own order of decreasing build-time frequency.
func checkColumns(t *testing.T, ix *Index, byFrequency bool, label string) {
	t.Helper()
	m, h := ix.recs.Len(), len(ix.bufferElems)
	if h == 0 {
		t.Fatalf("%s: nothing is buffered; the fixture tests nothing", label)
	}
	if blocks := ix.bufCols.rows.Len(); ix.bufCols.width != h || blocks*h != blockWords(m, h) {
		t.Fatalf("%s: %d columns of %d records in %d blocks of %d words", label, h, m, blocks, ix.bufCols.width)
	}
	prev := m
	for bit := 0; bit < h; bit++ {
		held := 0
		for id := 0; id < ix.bufCols.rows.Len()*bufWordBits; id++ {
			col := columnBit(ix, bit, id)
			if row := id < m && arenaBit(ix, id, bit); col != row {
				t.Fatalf("%s: record %d of %d, bit %d: column %v, row %v", label, id, m, bit, col, row)
			}
			if col {
				held++
			}
		}
		if byFrequency && held > prev {
			t.Fatalf("%s: bit %d is held by %d records, bit %d below it by %d", label, bit, held, bit-1, prev)
		}
		prev = held
	}
}

func TestColumnsMatchRows(t *testing.T) {
	defer func() { forcedBuildWorkers = 0 }()
	// 700 records: eleven 64-record blocks, so 2 and 4 workers both split on
	// block boundaries that are not the fair share.
	d := buildTestDataset(t, 91, 700)
	extra := buildTestDataset(t, 92, 400).Records
	for _, workers := range []int{1, 2, 4} {
		forcedBuildWorkers = workers
		label := fmt.Sprintf("%d workers", workers)
		ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 96, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, ix, true, label+", built")

		// Inserts one by one and in batches, through at least two new
		// chunks of blocks and at least one threshold shrink.
		chunks := map[int]bool{len(ix.bufCols.rows.Chunks()): true}
		tau := ix.Tau()
		for lo := 0; lo < len(extra); {
			n := min(1+lo%7, len(extra)-lo)
			ix.AddRecords(extra[lo : lo+n])
			lo += n
			if c := len(ix.bufCols.rows.Chunks()); !chunks[c] || lo == len(extra) {
				chunks[c] = true
				checkColumns(t, ix, false, fmt.Sprintf("%s, %d inserted", label, lo))
			}
		}
		if len(chunks) < 3 || ix.Tau() >= tau {
			t.Fatalf("%s: %d chunk counts seen, τ %v → %v; the fixture crosses no new chunk or no shrink", label, len(chunks), tau, ix.Tau())
		}

		var snap bytes.Buffer
		if err := ix.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&snap)
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, loaded, false, label+", grown and reloaded")
		for bit := range ix.bufferElems {
			if !slices.Equal(columnIDs(t, loaded, bit), columnIDs(t, ix, bit)) {
				t.Fatalf("%s: column %d differs after a reload", label, bit)
			}
		}
	}
}

// listUnion is the set of ids over the lists.
func listUnion(lists ...[]int32) map[int32]bool {
	seen := map[int32]bool{}
	for _, l := range lists {
		for _, id := range l {
			seen[id] = true
		}
	}
	return seen
}

// searchLists returns the posting lists a threshold search touches records
// on, from the reference builder's lists: with minCount T ≥ 2 the L − T + 1
// shortest non-empty ones of the query, ties in query order (none when fewer
// than T are non-empty); below it every one. It returns T beside them.
func searchLists(ref refState, sig *QuerySig, tstar float64) ([][]int32, int) {
	t := int(sig.minCount(tstar * float64(sig.Size)))
	var lists [][]int32
	for _, e := range sig.rest {
		lists = append(lists, ref.postings[e])
	}
	if t >= 2 {
		lists = slices.DeleteFunc(lists, func(l []int32) bool { return len(l) == 0 })
		slices.SortStableFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
		return lists[:max(len(lists)-t+1, 0)], t
	}
	return lists, t
}

// TestColumnsSearchMatchesAlgorithm2 runs short queries of popular elements at
// low thresholds — ⌈θ⌉ ≤ nq, so records qualify on their buffers alone and
// the counter planes the query's columns add up to are what find them — and
// long ones at high thresholds — minCount T ≥ 3, so only the shortest posting
// lists touch — and requires of Search, SearchSigScored and SearchTopKSig the
// results of Algorithm 2 (a scan of every record) and the candidate counts
// of the lists: a threshold search's candidates are the records on the lists
// it reads and its hits on none of them, a top-k's the records on the lists
// and its buffer-only entries, and each candidate of either is pruned,
// estimated or accepted on its buffer.
func TestColumnsSearchMatchesAlgorithm2(t *testing.T) {
	defer func() { forcedBuildWorkers = 0 }()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 900, Universe: 400, AlphaFreq: 1.3, AlphaSize: 2.2, MinSize: 4, MaxSize: 60,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	var queries []dataset.Record
	for len(queries) < 120 {
		// Two to six of the 40 most popular ids, now and then one rare id.
		var elems []hash.Element
		for n := 2 + rng.Intn(5); n > 0; n-- {
			elems = append(elems, hash.Element(rng.Intn(40)))
		}
		if rng.Intn(3) == 0 {
			elems = append(elems, hash.Element(100+rng.Intn(300)))
		}
		queries = append(queries, dataset.NewRecord(elems))
	}
	// Long queries, 150 to 250 of the 400 ids: a few dozen buffered, the
	// rest in their posting lists, and θ far past what the buffer can give.
	short := len(queries)
	for len(queries) < short+30 {
		var elems []hash.Element
		for _, e := range rng.Perm(400)[:150+rng.Intn(101)] {
			elems = append(elems, hash.Element(e))
		}
		queries = append(queries, dataset.NewRecord(elems))
	}
	for _, workers := range []int{1, 4} {
		forcedBuildWorkers = workers
		ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:600], Universe: d.Universe},
			Options{BudgetFraction: 0.12, BufferBits: 64, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		for stage := 0; stage < 2; stage++ {
			if stage == 1 {
				chunks := len(ix.bufCols.rows.Chunks())
				ix.AddRecords(d.Records[600:])
				if len(ix.bufCols.rows.Chunks()) == chunks {
					t.Fatalf("300 inserts into 600 records fit the columns' %d chunks", chunks)
				}
			}
			ref := refBuild(ix, ix.cut)
			planed, bufferOnly, counted := 0, 0, 0
			for qi, q := range queries {
				label := fmt.Sprintf("%d workers, stage %d, query %d %v", workers, stage, qi, q)
				sig := ix.Sketch(q)
				var rest [][]int32
				for _, e := range sig.rest {
					rest = append(rest, ref.postings[e])
				}
				thresholds := []float64{0.2, 0.34, 0.5, 0.75, 1}
				if qi >= short {
					thresholds = []float64{0.5, 0.8}
				}
				for _, tstar := range thresholds {
					lists, minCount := searchLists(ref, sig, tstar)
					if sig.buffer != nil && math.Ceil(tstar*float64(sig.Size)) <= float64(sig.buffer.Count()) {
						planed++
					}
					want := ix.SearchLinear(q, tstar)
					if got := ix.SearchSig(sig, tstar); !slices.Equal(got, want) {
						t.Fatalf("%s, t*=%v: Search finds %d records, Algorithm 2 %d", label, tstar, len(got), len(want))
					}
					on := listUnion(lists...)
					off := 0 // Algorithm 2's hits on none of the lists read
					for _, id := range want {
						if !on[int32(id)] {
							off++
						}
					}
					st := sig.Stats
					if st.Candidates != len(on)+off || st.BufferAccepts < off {
						t.Fatalf("%s, t*=%v: Search counts %d candidates and %d buffer accepts, the lists' union holds %d and %d hits are off it",
							label, tstar, st.Candidates, st.BufferAccepts, len(on), off)
					}
					if st.Candidates != st.PrunedByBound+st.Estimated+st.BufferAccepts {
						t.Fatalf("%s, t*=%v: Search stats %+v do not add up", label, tstar, st)
					}
					if minCount >= 3 && st.Candidates > 0 {
						counted++
					}
					bufferOnly += off
					scored, total := ix.SearchSigScored(sig, tstar, 0)
					// The scored page counts its buffer accepts as estimates.
					if sst := sig.Stats; sst.Candidates != st.Candidates || sst.PrunedByBound != st.PrunedByBound ||
						sst.BufferAccepts != st.BufferAccepts || sst.Estimated != st.Estimated+st.BufferAccepts {
						t.Fatalf("%s, t*=%v: SearchSigScored stats %+v, Search's %+v", label, tstar, sst, st)
					}
					if total != len(want) || len(scored) != len(want) {
						t.Fatalf("%s, t*=%v: SearchSigScored found %d of %d, Algorithm 2 %d", label, tstar, len(scored), total, len(want))
					}
					for i, s := range scored {
						if s.ID != want[i] || s.Score != ix.EstimateContainment(sig, s.ID) {
							t.Fatalf("%s, t*=%v: hit %d is %+v, Algorithm 2 record %d scoring %v",
								label, tstar, i, s, want[i], ix.EstimateContainment(sig, want[i]))
						}
					}
				}
				// Top-k against scoring everything: (score desc, id asc).
				var every []Scored
				for i := 0; i < ix.NumRecords(); i++ {
					if s := ix.EstimateContainment(sig, i); s > 0 {
						every = append(every, Scored{ID: i, Score: s})
					}
				}
				sort.Slice(every, func(a, b int) bool {
					if every[a].Score != every[b].Score {
						return every[a].Score > every[b].Score
					}
					return every[a].ID < every[b].ID
				})
				for _, k := range []int{1, 10, len(every) + 3} {
					if got, want := ix.SearchTopKSig(sig, k), every[:min(k, len(every))]; !slices.Equal(got, want) {
						t.Fatalf("%s: top-%d %v, brute force %v", label, k, got, want)
					}
					// Its candidates: the posting lists' records, and the
					// records on none that it scored on their buffers alone.
					st := sig.Stats
					if want := len(listUnion(rest...)) + st.BufferAccepts; st.Candidates != want {
						t.Fatalf("%s: top-%d counts %d candidates, the posting lists' union and the buffer-only entries %d", label, k, st.Candidates, want)
					}
					if st.Candidates != st.PrunedByBound+st.Estimated+st.BufferAccepts {
						t.Fatalf("%s: top-%d stats %+v do not add up", label, k, st)
					}
				}
			}
			if planed < short || bufferOnly == 0 {
				t.Fatalf("%d workers, stage %d: %d searches read the counter planes, %d hits on the buffer alone; the fixture bypasses the planes",
					workers, stage, planed, bufferOnly)
			}
			if long := len(queries) - short; counted < long {
				t.Fatalf("%d workers, stage %d: %d searches of %d long queries touch candidates at T ≥ 3; the fixture bypasses the count",
					workers, stage, counted, long)
			}
			t.Logf("%d workers, stage %d: %d searches read the planes, %d hits off the lists, %d counted at T ≥ 3", workers, stage, planed, bufferOnly, counted)
		}
	}
}

// TestTopKPlanesMatchesReference holds the counter-plane top-k to refTopK
// (score every record, sort) where the planes change shape: queries holding 1,
// 63 and 64 buffered elements — one plane, six full ones, a seventh for a
// single count — beside 0 to 120 sketch elements, on a build, after inserts
// that add chunks of blocks to the columns and after a threshold shrink.
func TestTopKPlanesMatchesReference(t *testing.T) {
	d := buildTestDataset(t, 61, 700)
	extra := buildTestDataset(t, 62, 500).Records
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.15, BufferBits: 128, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	eh := slices.Clone(ix.BufferElements())
	if len(eh) < 64 {
		t.Fatalf("%d buffered elements; the fixture needs 64", len(eh))
	}
	rng := rand.New(rand.NewSource(63))
	var queries []dataset.Record
	for _, nq := range []int{1, 63, 64} {
		for _, sketched := range []int{0, 10, 120} {
			var q []hash.Element
			for _, i := range rng.Perm(len(eh))[:nq] {
				q = append(q, eh[i])
			}
			for len(q) < nq+sketched {
				if e := hash.Element(rng.Intn(d.Universe)); !slices.Contains(eh, e) {
					q = append(q, e)
				}
			}
			queries = append(queries, dataset.NewRecord(q))
		}
	}
	check := func(stage string) {
		t.Helper()
		planes := map[int]bool{}
		for qi, q := range queries {
			sig := ix.Sketch(q)
			for _, k := range []int{1, 10, 64, ix.NumRecords()} {
				if got, want := ix.SearchTopKSig(sig, k), refTopK(ix, sig, k); !slices.Equal(got, want) {
					t.Fatalf("%s, query %d (%d buffered), k=%d: top-k %v, reference %v", stage, qi, sig.buffer.Count(), k, got, want)
				}
			}
			planes[bits.Len(uint(sig.buffer.Count()))] = true
		}
		if !planes[1] || !planes[6] || !planes[7] {
			t.Fatalf("%s: the queries span %v planes, not 1, 6 and 7", stage, planes)
		}
	}
	check("built")

	chunks, tau := len(ix.bufCols.rows.Chunks()), ix.Tau()
	ix.AddRecords(extra[:250])
	if len(ix.bufCols.rows.Chunks()) == chunks {
		t.Fatalf("250 inserts into %d records fit the columns' %d chunks", len(d.Records), chunks)
	}
	check("grown")
	ix.AddRecords(extra[250:])
	if ix.Tau() >= tau {
		t.Fatalf("τ %v → %v: the inserts shrank nothing", tau, ix.Tau())
	}
	check("shrunk")
}
