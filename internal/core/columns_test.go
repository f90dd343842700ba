package core

import (
	"bytes"
	"fmt"
	"math"
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
// every column clear past the record count, and — where asked: a build and a
// load leave it so, inserts do not refresh it — the bit order ascending by
// column popcount, ties by bit.
func checkColumns(t *testing.T, ix *Index, bitOrder bool, label string) {
	t.Helper()
	m, h := ix.recs.Len(), len(ix.bufferElems)
	if h == 0 {
		t.Fatalf("%s: nothing is buffered; the fixture tests nothing", label)
	}
	if room := ix.bufCols.stride * bufWordBits; room < m || len(ix.bufCols.words) != h*ix.bufCols.stride {
		t.Fatalf("%s: %d columns of %d records hold %d words at stride %d", label, h, m, len(ix.bufCols.words), ix.bufCols.stride)
	}
	for bit := 0; bit < h; bit++ {
		held := 0
		for id := 0; id < ix.bufCols.stride*bufWordBits; id++ {
			col := columnBit(ix, bit, id)
			if row := id < m && arenaBit(ix, id, bit); col != row {
				t.Fatalf("%s: record %d of %d, bit %d: column %v, row %v", label, id, m, bit, col, row)
			}
			if col {
				held++
			}
		}
		if got := ix.bufCols.count(bit); got != held {
			t.Fatalf("%s: column %d counts %d records, holds %d", label, bit, got, held)
		}
	}
	if !bitOrder {
		return
	}
	if len(ix.bitOrder) != h {
		t.Fatalf("%s: %d bits ordered of %d", label, len(ix.bitOrder), h)
	}
	for i := 1; i < h; i++ {
		a, b := ix.bitOrder[i-1], ix.bitOrder[i]
		if ca, cb := ix.bufCols.count(int(a)), ix.bufCols.count(int(b)); ca > cb || (ca == cb && a >= b) {
			t.Fatalf("%s: bit order places bit %d (%d records) before bit %d (%d records)", label, a, ca, b, cb)
		}
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

		// Inserts one by one and in batches, through at least two re-strides
		// and at least one threshold shrink.
		strides := map[int]bool{ix.bufCols.stride: true}
		tau := ix.Tau()
		for lo := 0; lo < len(extra); {
			n := min(1+lo%7, len(extra)-lo)
			ix.AddRecords(extra[lo : lo+n])
			lo += n
			if !strides[ix.bufCols.stride] || lo == len(extra) {
				strides[ix.bufCols.stride] = true
				checkColumns(t, ix, false, fmt.Sprintf("%s, %d inserted", label, lo))
			}
		}
		if len(strides) < 3 || ix.Tau() >= tau {
			t.Fatalf("%s: %d strides seen, τ %v → %v; the fixture crosses no re-stride or no shrink", label, len(strides), tau, ix.Tau())
		}

		var snap bytes.Buffer
		if err := ix.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&snap)
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, loaded, true, label+", grown and reloaded")
		for bit := range ix.bufferElems {
			if !slices.Equal(columnIDs(t, loaded, bit), columnIDs(t, ix, bit)) {
				t.Fatalf("%s: column %d differs after a reload", label, bit)
			}
		}
	}
}

// unionSize is the number of distinct ids over the lists.
func unionSize(lists ...[]int32) int {
	seen := map[int32]bool{}
	for _, l := range lists {
		for _, id := range l {
			seen[id] = true
		}
	}
	return len(seen)
}

// TestColumnsSearchMatchesAlgorithm2 runs short queries of popular elements at
// low thresholds — ⌈θ⌉ ≤ nq, so records qualify on their buffers alone and
// the prefix filter over the columns is what finds them — and requires of
// Search, SearchSigScored and SearchTopKSig the results of Algorithm 2 (a scan
// of every record) and the candidate counts of the per-bit lists.
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
	for _, workers := range []int{1, 4} {
		forcedBuildWorkers = workers
		ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:600], Universe: d.Universe},
			Options{BudgetFraction: 0.12, BufferBits: 64, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		for stage := 0; stage < 2; stage++ {
			if stage == 1 {
				stride := ix.bufCols.stride
				ix.AddRecords(d.Records[600:])
				if ix.bufCols.stride == stride {
					t.Fatalf("300 inserts into 600 records fit the columns' first stride of %d words", stride)
				}
			}
			ref := refBuild(ix, ix.cut)
			prefixed, bufferOnly := 0, 0
			for qi, q := range queries {
				label := fmt.Sprintf("%d workers, stage %d, query %d %v", workers, stage, qi, q)
				sig := ix.Sketch(q)
				var rest, all [][]int32
				for _, e := range sig.rest {
					rest = append(rest, ref.postings[e])
				}
				for _, bit := range ones(sig.buffer) {
					all = append(all, ref.bufferPostings[bit])
				}
				for _, tstar := range []float64{0.2, 0.34, 0.5, 0.75, 1} {
					// The lists' candidate set: the query's sketch elements,
					// and of its nq buffered bits the nq−⌈θ⌉+1 rarest.
					lists := slices.Clone(rest)
					nq, c := sig.buffer.Count(), int(math.Ceil(tstar*float64(sig.Size)))
					if c >= 1 && c <= nq {
						prefixed++
						taken := 0
						for _, bit := range ix.bitOrder {
							if sig.buffer.Get(int(bit)) && taken < nq-c+1 {
								lists = append(lists, ref.bufferPostings[bit])
								taken++
							}
						}
					}
					want := ix.SearchLinear(q, tstar)
					if got := ix.SearchSig(sig, tstar); !slices.Equal(got, want) {
						t.Fatalf("%s, t*=%v: Search finds %d records, Algorithm 2 %d", label, tstar, len(got), len(want))
					}
					if got, want := sig.Stats.Candidates, unionSize(lists...); got != want {
						t.Fatalf("%s, t*=%v: Search touched %d candidates, the lists' union holds %d", label, tstar, got, want)
					}
					scored, total := ix.SearchSigScored(sig, tstar, 0)
					if got, want := sig.Stats.Candidates, unionSize(lists...); got != want {
						t.Fatalf("%s, t*=%v: SearchSigScored touched %d candidates, the lists' union holds %d", label, tstar, got, want)
					}
					bufferOnly += sig.Stats.BufferAccepts
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
					if got, want := sig.Stats.Candidates, unionSize(append(rest, all...)...); got != want {
						t.Fatalf("%s: top-%d touched %d candidates, the lists' union holds %d", label, k, got, want)
					}
				}
			}
			if prefixed < len(queries) || bufferOnly == 0 {
				t.Fatalf("%d workers, stage %d: %d prefix-filtered searches, %d hits on the buffer alone; the fixture bypasses the columns",
					workers, stage, prefixed, bufferOnly)
			}
		}
	}
}
