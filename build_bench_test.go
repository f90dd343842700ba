package gbkmv_test

import (
	"testing"

	"gbkmv"
	"gbkmv/internal/dataset"
)

// Write-path benchmarks over the shared benchmark corpus: index
// construction (τ selection and derive, both parallel) and dynamic batch
// inserts. CI records them into BENCH_PR4.json next to the per-engine
// numbers; BenchmarkBuild/gbkmv is the build-path critical the regression
// gate watches (as EngineBuild/gbkmv against older baselines).

// BenchmarkBuild measures GB-KMV index construction on the default
// 2000-record power-law corpus at the paper's 10% budget — the same
// workload as BenchmarkEngineBuild/gbkmv, kept as its own group so the
// build path is benchmarked even when the engine sweep is filtered down.
func BenchmarkBuild(b *testing.B) {
	records, _ := benchEngineWorkload(b)
	for _, cfg := range []struct {
		name string
		opts gbkmv.Options
	}{
		{"gbkmv", gbkmv.Options{BudgetFraction: 0.10, Seed: 42}},
		{"gkmv", gbkmv.Options{BudgetFraction: 0.10, BufferBits: gbkmv.NoBuffer, Seed: 42}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gbkmv.Build(records, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAddBatch measures appending one 16-record batch to a prebuilt
// index. The roomy absolute budget keeps threshold shrinks off the
// steady-state path (the shrink itself is exercised — and differentially
// verified — in internal/core); what is measured is the hash-once append:
// one UnitHash per element feeding the arena run, the buffer slot and the
// posting lists.
func BenchmarkAddBatch(b *testing.B) {
	records, queries := benchEngineWorkload(b)
	const batchSize = 16
	b.Run("batch16", func(b *testing.B) {
		ix, err := gbkmv.Build(records, gbkmv.Options{BudgetUnits: 64 << 20, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]gbkmv.Record, batchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range batch {
				batch[j] = queries[(i*batchSize+j)%len(queries)]
			}
			ix.AddBatch(batch)
		}
	})
}

// saturatedIndex builds a 20 000-record index at the paper's 10 % budget —
// full from the first insert, and large enough that work proportional to
// the collection dominates work proportional to one record — and returns it
// with the records the benchmarks insert.
func saturatedIndex(b *testing.B) (*gbkmv.Index, []gbkmv.Record) {
	b.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 21000, Universe: 20000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 10, MaxSize: 200,
	}, 44)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := gbkmv.Build(d.Records[:20000], gbkmv.Options{BudgetFraction: 0.10, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return ix, d.Records[20000:]
}

// BenchmarkAddSaturated measures one single-record insert into a full
// budget: the regime BenchmarkAddBatch's roomy fixture never enters, where
// the threshold shrinks (amortised over the slack) are part of the cost.
func BenchmarkAddSaturated(b *testing.B) {
	ix, extra := saturatedIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Add(extra[i%len(extra)])
	}
}

// BenchmarkSearchAfterInsert measures a threshold search that directly
// follows an insert (the insert itself is untimed): B/op shows whether
// growing the collection costs the next search its pooled working memory.
func BenchmarkSearchAfterInsert(b *testing.B) {
	ix, extra := saturatedIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix.Add(extra[i%len(extra)])
		b.StartTimer()
		ix.Search(extra[(i+1)%len(extra)], 0.5)
	}
}
