package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// fuzzCorpus is FuzzQueryKernels' collection and the records it may insert,
// made once a process: 300 records of 5 to 240 elements over 1 200 ids, so
// every query path the kernels tell apart is a few bytes away — buffered
// elements alone (the columns, the counter planes), a long record (minCount
// T ≥ 2), a record's subset at a high threshold.
var fuzzCorpus = sync.OnceValues(func() (*dataset.Dataset, []dataset.Record) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 400, Universe: 1200, AlphaFreq: 1.1, AlphaSize: 1.6, MinSize: 5, MaxSize: 240,
	}, 71)
	if err != nil {
		panic(err)
	}
	return &dataset.Dataset{Records: d.Records[:300], Universe: d.Universe}, d.Records[300:]
})

// fuzzQuery is record base of d (none past its last) edited by each byte:
// below 64 adds a buffered element, below 128 drops an element, anything else
// adds an element of the universe.
func fuzzQuery(ix *Index, d *dataset.Dataset, base uint8, edits []byte) dataset.Record {
	var q []hash.Element
	if int(base) < len(d.Records) {
		q = slices.Clone(d.Records[base])
	}
	eh := ix.BufferElements()
	for i, x := range edits {
		switch {
		case x < 64 && len(eh) > 0:
			q = append(q, eh[int(x)%len(eh)])
		case x < 128 && len(q) > 0:
			j := int(x) % len(q)
			q = slices.Delete(q, j, j+1)
		default:
			q = append(q, hash.Element((int(x)*131+i*7)%d.Universe))
		}
	}
	return dataset.NewRecord(q)
}

// FuzzQueryKernels holds the three query kernels to their references on a
// fuzz-chosen query, threshold, k, page and insert count: SearchSig to
// SearchLinear (Algorithm 2), SearchSigScored to SearchLinear's ids with each
// score EstimateContainment's, and SearchTopKSig to scoring every record and
// sorting (refTopK). The index is built fresh an input — no buffer, or 64 or
// 192 buffer bits — and takes 0 to 100 records before the query, so the
// columns' growth and threshold shrinks are inputs too; an odd reload byte
// then saves it and queries what Load makes of the stream, so the counter
// planes also add up columns a load laid. CI runs it briefly (-fuzz
// FuzzQueryKernels -fuzztime 15s).
func FuzzQueryKernels(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint8(100), uint8(10), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(3), []byte{1, 2, 3, 200}, uint8(160), uint8(1), uint8(5), uint8(40), uint8(1), uint8(0))
	f.Add(uint8(255), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(60), uint8(50), uint8(3), uint8(100), uint8(2), uint8(0))
	f.Add(uint8(7), []byte{130, 131, 132, 70, 71}, uint8(200), uint8(5), uint8(0), uint8(17), uint8(0), uint8(0))
	f.Add(uint8(12), []byte{250, 240, 230, 220, 210, 200, 190}, uint8(255), uint8(255), uint8(9), uint8(63), uint8(2), uint8(0))
	// Buffered elements alone at a low threshold, after inserts and a reload:
	// the buffer-only hits of a loaded index, read off the counter planes.
	f.Add(uint8(255), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(60), uint8(50), uint8(3), uint8(100), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, base uint8, edits []byte, tb, kb, limit, inserts, buffer, reload uint8) {
		d, extra := fuzzCorpus()
		ix, err := BuildIndex(d, Options{BudgetFraction: 0.25, BufferBits: []int{NoBuffer, 64, 192}[buffer%3], Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		ix.AddRecords(extra[:int(inserts)%(len(extra)+1)])
		if reload%2 == 1 {
			var stream bytes.Buffer
			if err := ix.Save(&stream); err != nil {
				t.Fatal(err)
			}
			if ix, err = Load(&stream); err != nil {
				t.Fatal(err)
			}
		}
		q := fuzzQuery(ix, d, base, edits)
		sig := ix.Sketch(q)
		tstar, k := float64(tb)/200, int(kb)

		want := ix.SearchLinear(q, tstar)
		if got := ix.SearchSig(sig, tstar); !slices.Equal(got, want) {
			t.Fatalf("t*=%v: SearchSig %v, SearchLinear %v", tstar, got, want)
		}
		page := want
		if limit > 0 && len(page) > int(limit) {
			page = page[:limit]
		}
		scored, total := ix.SearchSigScored(sig, tstar, int(limit))
		if total != len(want) || len(scored) != len(page) {
			t.Fatalf("t*=%v limit=%d: SearchSigScored %d of %d, SearchLinear %d", tstar, limit, len(scored), total, len(want))
		}
		for i, s := range scored {
			if s.ID != page[i] || s.Score != ix.EstimateContainment(sig, s.ID) {
				t.Fatalf("t*=%v limit=%d: hit %d is %+v, SearchLinear's record %d scores %v",
					tstar, limit, i, s, page[i], ix.EstimateContainment(sig, page[i]))
			}
		}
		if got, want := ix.SearchTopKSig(sig, k), refTopK(ix, sig, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: SearchTopKSig %v, scoring every record %v", k, got, want)
		}
	})
}
