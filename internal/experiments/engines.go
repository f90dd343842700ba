package experiments

import (
	"fmt"
	"io"
	"time"

	"gbkmv"
	"gbkmv/internal/dataset"
	"gbkmv/internal/eval"
)

// This file is how a figure builds a system under test: through the public
// engine registry (gbkmv.Engines / gbkmv.NewEngine), the path gbkmvd and the
// CLIs use. The rows that need a handle no engine offers build theirs
// directly — AsymMH and FreqSet (no engine), LSH-E with verification (reads
// the ensemble's records), the partitioned-KMV and cost-model ablations, and
// the two that time core's linear scan (indexed-search, extra-scaling).

// EngineRow is one (engine, workload) evaluation.
type EngineRow struct {
	Engine    string
	F1        float64
	Precision float64
	Recall    float64
	Build     time.Duration
	SizeBytes int
}

// engineSearcher adapts a registry engine to the eval harness.
func engineSearcher(e gbkmv.Engine) eval.Searcher {
	return eval.SearcherFunc(func(q dataset.Record, tstar float64) []int {
		return e.Search(q, tstar)
	})
}

// atBudget is the options of a system built at a space fraction: the KMV
// family ("gbkmv" with the cost-model buffer, "gkmv", "kmv"), and LSH-E at
// its 256-hash default, which ignores the budget.
func (c Config) atBudget(frac float64) gbkmv.EngineOptions {
	return gbkmv.EngineOptions{BudgetFraction: frac, Seed: uint64(c.Seed)}
}

// withHashes is the options of LSH-E at a signature length.
func (c Config) withHashes(n int) gbkmv.EngineOptions {
	return gbkmv.EngineOptions{NumHashes: n, Seed: uint64(c.Seed)}
}

// buildRegistered constructs a registry engine over the dataset: the one way
// a figure builds GB-KMV ("gbkmv"), G-KMV ("gkmv"), KMV ("kmv"), LSH-E
// ("lshensemble") or PPjoin* ("exact").
func buildRegistered(name string, d *dataset.Dataset, opt gbkmv.EngineOptions) (gbkmv.Engine, error) {
	e, err := gbkmv.NewEngine(name, d.Records, opt)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	return e, nil
}

// runRegistered builds the named registry engine over the workload's dataset
// and evaluates it.
func (w *workload) runRegistered(name string, opt gbkmv.EngineOptions) (eval.Result, error) {
	e, err := buildRegistered(name, w.data, opt)
	if err != nil {
		return eval.Result{}, err
	}
	return w.run(engineSearcher(e)), nil
}

// EnginesCompare evaluates every registered engine on the NETFLIX profile
// (the most size-skewed one) at the default threshold. The "exact" engine
// must score F1 = 1 by construction — it is the same computation as the
// ground truth — which doubles as an end-to-end check that the registry
// adapters preserve each backend's semantics.
func EnginesCompare(w io.Writer, cfg Config) ([]EngineRow, error) {
	cfg = cfg.WithDefaults()
	header(w, "Engine registry: every registered backend, one workload")
	p, err := dataset.ProfileByName("NETFLIX")
	if err != nil {
		return nil, err
	}
	d, err := generate(p, cfg)
	if err != nil {
		return nil, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	fmt.Fprintf(w, "%-12s %8s %8s %8s %12s %12s\n",
		"Engine", "F1", "Prec", "Recall", "build", "bytes")
	rows := []EngineRow{}
	for _, name := range gbkmv.Engines() {
		start := time.Now()
		e, err := buildRegistered(name, d, cfg.atBudget(0.10))
		if err != nil {
			return nil, err
		}
		built := time.Since(start)
		r := wl.run(engineSearcher(e))
		row := EngineRow{
			Engine:    name,
			F1:        r.F1,
			Precision: r.Precision,
			Recall:    r.Recall,
			Build:     built,
			SizeBytes: e.EngineStats().SizeBytes,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s %8.3f %8.3f %8.3f %12s %12d\n",
			row.Engine, row.F1, row.Precision, row.Recall, fmtDur(row.Build), row.SizeBytes)
	}
	return rows, nil
}
