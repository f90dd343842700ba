package core

import (
	"bytes"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// designCorpus is the corpus DESIGN.md's snapshot and build tables are
// measured on: 20 000 records / 1 306 252 element occurrences.
func designCorpus(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 20000, Universe: 50000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 20, MaxSize: 500,
	}, 11)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// designCase is one regime of those tables: a corpus and the options it is
// built with.
type designCase struct {
	d   *dataset.Dataset
	opt Options
}

// designCases are the regimes of those tables: the default budget
// (τ ≈ 0.087), headroom for every key (τ = 1), and the default budget over
// the same records with their ids spread apart — every id times 27, past the
// occurrence count, so that the counters are the table of sparse ids.
func designCases(d *dataset.Dataset) map[string]designCase {
	spread := &dataset.Dataset{Records: make([]dataset.Record, len(d.Records))}
	factor := hash.Element(d.TotalElements()/d.Universe + 1)
	for i, rec := range d.Records {
		spread.Records[i] = make(dataset.Record, len(rec))
		for j, e := range rec {
			spread.Records[i][j] = e * factor
		}
	}
	return map[string]designCase{
		"default": {d, Options{BufferBits: AutoBuffer}},
		"tau1":    {d, Options{BudgetUnits: 8 * d.TotalElements(), BufferBits: 64}},
		"sparse":  {spread, Options{BufferBits: AutoBuffer}},
	}
}

// BenchmarkDesignCorpus times BuildIndex, Save and Load on the DESIGN.md
// corpus, and BuildPacked over a store packed beforehand (build-packed: the
// build of a RecordBuilder's corpus, which decodes its records where BuildIndex
// reads the slices, and codes no store where BuildIndex codes one beside the
// build); -benchmem gives the bytes each allocates and snapshot-bytes the
// stream's size. Run it at -cpu 1,2 to reproduce the tables.
func BenchmarkDesignCorpus(b *testing.B) {
	for name, c := range designCases(designCorpus(b)) {
		ix, err := BuildIndex(c.d, c.opt)
		if err != nil {
			b.Fatal(err)
		}
		if dense := denseIDs(ix.recs.Top(), ix.recs.Elements()); dense != (name != "sparse") {
			b.Fatalf("%s: the corpus takes the other counter layout", name)
		}
		var snap bytes.Buffer
		if err := ix.Save(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run("build/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildIndex(c.d, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("build-packed/"+name, func(b *testing.B) {
			recs, err := snapfmt.PackRecords(c.d.Records, buildWorkers(len(c.d.Records)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The index takes the store over but changes none of it.
				if _, err := BuildPacked(recs, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("save/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
			for i := 0; i < b.N; i++ {
				var w bytes.Buffer
				w.Grow(snap.Len())
				if err := ix.Save(&w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("load/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
