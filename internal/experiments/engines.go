package experiments

import (
	"fmt"
	"io"
	"time"

	"gbkmv"
	"gbkmv/internal/dataset"
	"gbkmv/internal/eval"
)

// This file dispatches the systems-under-test through the public engine
// registry (gbkmv.Engines / gbkmv.NewEngine) instead of package-local
// ad-hoc constructions: every registered backend — including ones added
// after this experiment was written — is built on the same workload with
// the same budget and scored against the exact ground truth.

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

// buildRegistered constructs a registry engine over the dataset at the given
// space fraction.
func buildRegistered(name string, d *dataset.Dataset, frac float64, cfg Config) (gbkmv.Engine, error) {
	return gbkmv.NewEngine(name, d.Records, gbkmv.EngineOptions{
		BudgetFraction: frac,
		Seed:           uint64(cfg.Seed),
	})
}

// runRegistered evaluates the named registry engine on the workload.
func (w *workload) runRegistered(name string, frac float64, cfg Config) (eval.Result, error) {
	e, err := buildRegistered(name, w.data, frac, cfg)
	if err != nil {
		return eval.Result{}, fmt.Errorf("building %s: %w", name, err)
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
		e, err := buildRegistered(name, d, 0.10, cfg)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
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
