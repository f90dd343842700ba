package core

import (
	"math"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// TestSearchSigScoredMatchesSearchPlusEstimate pins the scored search to its
// decomposed reference: SearchSigScored(t*, limit) must return exactly the
// SearchSig(t*) ids (ascending, truncated at limit), report the full
// qualifying count as total, and score every returned hit bit-identically to
// EstimateContainment — across buffer configurations, thresholds, limits,
// and after dynamic inserts (which exercise buffer accepts on grown records
// and a possibly shrunk τ).
func TestSearchSigScoredMatchesSearchPlusEstimate(t *testing.T) {
	d := testDataset(t, 250)
	queries := d.SampleQueries(10, 9)
	for _, opt := range []Options{
		{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: testSeed},
		{BudgetFraction: 0.08, BufferBits: NoBuffer, Seed: testSeed + 1},
		{BudgetFraction: 0.3, BufferBits: 128, Seed: testSeed + 2},
	} {
		ix, err := BuildIndex(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			for qi, q := range queries {
				sig := ix.Sketch(q)
				for _, tstar := range []float64{0, 0.2, 0.5, 0.9} {
					ids := ix.SearchSig(sig, tstar)
					for _, limit := range []int{0, 1, 7, len(ids), len(ids) + 3} {
						scored, total := ix.SearchSigScored(sig, tstar, limit)
						if total != len(ids) {
							t.Fatalf("%s q%d t*=%v limit=%d: total %d, want %d",
								stage, qi, tstar, limit, total, len(ids))
						}
						want := ids
						if limit > 0 && len(want) > limit {
							want = want[:limit]
						}
						if len(scored) != len(want) {
							t.Fatalf("%s q%d t*=%v limit=%d: %d hits, want %d",
								stage, qi, tstar, limit, len(scored), len(want))
						}
						for i, s := range scored {
							if s.ID != want[i] {
								t.Fatalf("%s q%d t*=%v limit=%d: hit %d id %d, want %d",
									stage, qi, tstar, limit, i, s.ID, want[i])
							}
							if est := ix.EstimateContainment(sig, s.ID); s.Score != est {
								t.Fatalf("%s q%d t*=%v: id %d scored %v, EstimateContainment %v",
									stage, qi, tstar, s.ID, s.Score, est)
							}
						}
					}
				}
			}
		}
		check("built")
		// Inserts under a tight budget trigger a threshold shrink and set
		// buffer bits in rows and columns derive did not lay — the scored
		// walk must stay equivalent through both.
		extra, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 40, Universe: 4000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 40, MaxSize: 300,
		}, 123)
		if err != nil {
			t.Fatal(err)
		}
		ix.AddRecords(extra.Records)
		check("after-insert")
	}
}

// TestSearchPrunesZeroCountWithoutSketch: a query whose sketch L_Q is empty —
// buffered elements, and elements whose keys lie over the cut — has K∩ = 0
// with every record, so D̂∩ = 0 and only records whose buffers alone reach θ
// qualify. Search and SearchSigScored touch no record on a list and estimate
// none: their candidates are their hits, all buffer accepts read off the
// counter planes, and they answer what Algorithm 2 does. The fixture's
// queries share buffered elements with records short of θ too, which the
// planes leave out uncounted.
func TestSearchPrunesZeroCountWithoutSketch(t *testing.T) {
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	eh := ix.BufferElements()
	var over []dataset.Record // elements of the records off E_H with keys over the cut
	for _, rec := range d.Records {
		var elems dataset.Record
		for _, e := range rec {
			if _, buffered := ix.bitOf.lookup(e); !buffered && hash.Key32(e, ix.opt.Seed) > ix.cut {
				elems = append(elems, e)
			}
		}
		over = append(over, elems)
	}
	hits, misses := 0, 0
	for qi := 0; qi < 60; qi++ {
		var q []hash.Element
		for j := 0; j < 2+qi%7; j++ {
			q = append(q, eh[(qi*13+j*5)%len(eh)])
		}
		q = append(q, over[qi][:min(len(over[qi]), qi%4)]...)
		rec := dataset.NewRecord(q)
		sig := ix.Sketch(rec)
		if sig.qMax() != 0 || len(sig.rest) != 0 {
			t.Fatalf("query %d: L_Q holds %d keys", qi, sig.sum.K)
		}
		for _, tstar := range []float64{0.2, 0.4, 0.6, 0.9} {
			want := ix.SearchLinear(rec, tstar)
			got := ix.SearchSig(sig, tstar)
			if st := sig.Stats; !slices.Equal(got, want) || st.Candidates != len(want) || st.BufferAccepts != len(want) || st.Estimated != 0 {
				t.Fatalf("query %d, t*=%v: Search finds %v with stats %+v, Algorithm 2 %v", qi, tstar, got, st, want)
			}
			scored, total := ix.SearchSigScored(sig, tstar, 0)
			// The scored page counts its buffer accepts as estimates.
			if st := sig.Stats; total != len(want) || st.Candidates != total || st.BufferAccepts != total || st.Estimated != total {
				t.Fatalf("query %d, t*=%v: SearchSigScored finds %d with stats %+v, Algorithm 2 %d", qi, tstar, total, st, len(want))
			}
			for i, s := range scored {
				if s.ID != want[i] {
					t.Fatalf("query %d, t*=%v: hit %d is %d, Algorithm 2 %d", qi, tstar, i, s.ID, want[i])
				}
			}
			hits += total
			c := int(math.Ceil(tstar * float64(sig.Size)))
			for id := range ix.NumRecords() {
				if overlap := ix.bufferOverlap(sig, id); overlap > 0 && overlap < c {
					misses++
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d buffer-only hits, %d records sharing a buffered element short of θ: the fixture needs both", hits, misses)
	}
}
