package core

import (
	"bytes"
	"testing"

	"gbkmv/internal/dataset"
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

// designOptions are the two regimes of those tables: the default budget
// (τ ≈ 0.087) and headroom for every key (τ = 1).
func designOptions(d *dataset.Dataset) map[string]Options {
	return map[string]Options{
		"default": {BufferBits: AutoBuffer},
		"tau1":    {BudgetUnits: 8 * d.TotalElements(), BufferBits: 64},
	}
}

// BenchmarkDesignCorpus times BuildIndex, Save and Load on the DESIGN.md
// corpus; -benchmem gives the bytes each allocates and snapshot-bytes the
// stream's size. Run it at -cpu 1,2 to reproduce the tables.
func BenchmarkDesignCorpus(b *testing.B) {
	d := designCorpus(b)
	for name, opt := range designOptions(d) {
		ix, err := BuildIndex(d, opt)
		if err != nil {
			b.Fatal(err)
		}
		var snap bytes.Buffer
		if err := ix.Save(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run("build/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildIndex(d, opt); err != nil {
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
