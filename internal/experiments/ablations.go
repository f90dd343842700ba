package experiments

import (
	"fmt"
	"io"
	"time"

	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/eval"
)

// AblationResult is a generic two-arm comparison.
type AblationResult struct {
	Name    string
	ArmA    string
	ArmB    string
	F1A     float64
	F1B     float64
	TimeA   time.Duration
	TimeB   time.Duration
	Comment string
}

func (r AblationResult) print(w io.Writer) {
	fmt.Fprintf(w, "%-24s %-22s F1=%.3f t=%s\n", r.Name, r.ArmA, r.F1A, fmtDur(r.TimeA))
	fmt.Fprintf(w, "%-24s %-22s F1=%.3f t=%s\n", "", r.ArmB, r.F1B, fmtDur(r.TimeB))
	if r.Comment != "" {
		fmt.Fprintf(w, "%-24s %s\n", "", r.Comment)
	}
}

// ablationDataset is the shared workload for the ablations: a NETFLIX-like
// skewed dataset at the configured scale.
func ablationDataset(cfg Config) (*dataset.Dataset, error) {
	p, err := dataset.ProfileByName("NETFLIX")
	if err != nil {
		return nil, err
	}
	return generate(p, cfg)
}

// AblationGlobalThreshold compares the G-KMV estimator against plain KMV at
// the same budget (Theorem 3's claim, measured).
func AblationGlobalThreshold(w io.Writer, cfg Config) (AblationResult, error) {
	cfg = cfg.WithDefaults()
	d, err := ablationDataset(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	kmvRes, err := wl.runRegistered("kmv", cfg.atBudget(0.10))
	if err != nil {
		return AblationResult{}, err
	}
	gRes, err := wl.runRegistered("gkmv", cfg.atBudget(0.10))
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{
		Name: "global-threshold", ArmA: "KMV (equal k)", ArmB: "G-KMV (global τ)",
		F1A: kmvRes.F1, F1B: gRes.F1,
		TimeA: kmvRes.AvgQueryTime, TimeB: gRes.AvgQueryTime,
		Comment: "Theorem 3: G-KMV should dominate for α1 ≤ 3.4",
	}
	header(w, "Ablation: global threshold (Theorem 3)")
	res.print(w)
	return res, nil
}

// AblationBuffer compares cost-model buffer selection against no buffer.
func AblationBuffer(w io.Writer, cfg Config) (AblationResult, error) {
	cfg = cfg.WithDefaults()
	d, err := ablationDataset(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	gRes, err := wl.runRegistered("gkmv", cfg.atBudget(0.10))
	if err != nil {
		return AblationResult{}, err
	}
	gb, err := buildRegistered("gbkmv", d, cfg.atBudget(0.10))
	if err != nil {
		return AblationResult{}, err
	}
	gbRes := wl.run(engineSearcher(gb))
	res := AblationResult{
		Name: "buffer", ArmA: "G-KMV (r=0)", ArmB: fmt.Sprintf("GB-KMV (r=%d)", gb.EngineStats().BufferBits),
		F1A: gRes.F1, F1B: gbRes.F1,
		TimeA: gRes.AvgQueryTime, TimeB: gbRes.AvgQueryTime,
		Comment: "cost-model buffer should not hurt, usually helps on skewed data",
	}
	header(w, "Ablation: frequency buffer (Section IV-C6)")
	res.print(w)
	return res, nil
}

// AblationPartitionedKMV measures Theorem 4: splitting the element universe
// into frequency groups with independent KMV sketches is worse than one
// sketch of the same total size.
func AblationPartitionedKMV(w io.Writer, cfg Config) (AblationResult, error) {
	cfg = cfg.WithDefaults()
	d, err := ablationDataset(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	single, err := wl.runRegistered("kmv", cfg.atBudget(0.10))
	if err != nil {
		return AblationResult{}, err
	}
	parted := wl.run(buildPartitionedKMV(d, 0.10, uint64(cfg.Seed)))
	res := AblationResult{
		Name: "partitioned-kmv", ArmA: "single KMV", ArmB: "2-group KMV",
		F1A: single.F1, F1B: parted.F1,
		TimeA: single.AvgQueryTime, TimeB: parted.AvgQueryTime,
		Comment: "Theorem 4: summing per-group estimates inflates variance",
	}
	header(w, "Ablation: partitioned KMV (Theorem 4)")
	res.print(w)
	return res, nil
}

// AblationIndexedSearch compares the inverted-index accelerated search
// against the linear scan of Algorithm 2 (identical results by
// construction; the question is query time).
func AblationIndexedSearch(w io.Writer, cfg Config) (AblationResult, error) {
	cfg = cfg.WithDefaults()
	d, err := ablationDataset(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	// SearchLinear is not part of the engine contract: this arm needs the
	// index itself.
	gb, err := core.BuildIndex(d, core.Options{BudgetFraction: 0.10, BufferBits: core.AutoBuffer, Seed: uint64(cfg.Seed)})
	if err != nil {
		return AblationResult{}, err
	}
	linear := wl.run(eval.SearcherFunc(gb.SearchLinear))
	indexed := wl.run(eval.SearcherFunc(gb.Search))
	res := AblationResult{
		Name: "indexed-search", ArmA: "linear scan (Alg. 2)", ArmB: "inverted index",
		F1A: linear.F1, F1B: indexed.F1,
		TimeA: linear.AvgQueryTime, TimeB: indexed.AvgQueryTime,
		Comment: "results identical; the index only changes query time",
	}
	header(w, "Ablation: indexed vs linear search")
	res.print(w)
	return res, nil
}

// AblationCostModel compares the build's empirical cost model against the
// paper's closed-form power-law model (Equation 33): the second arm builds at
// the argmin of core.ClosedFormVarianceCurve.
func AblationCostModel(w io.Writer, cfg Config) (AblationResult, error) {
	cfg = cfg.WithDefaults()
	d, err := ablationDataset(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	wl := newWorkload(d, cfg, cfg.Threshold)
	seed := uint64(cfg.Seed)
	build := func(bufferBits int) (eval.Result, int, error) {
		ix, err := core.BuildIndex(d, core.Options{BudgetFraction: 0.10, BufferBits: bufferBits, Seed: seed})
		if err != nil {
			return eval.Result{}, 0, err
		}
		return wl.run(eval.SearcherFunc(ix.Search)), ix.BufferBits(), nil
	}
	emp, rEmp, err := build(core.AutoBuffer)
	if err != nil {
		return AblationResult{}, err
	}
	curve, err := core.ClosedFormVarianceCurve(d, int(0.10*float64(d.TotalElements())), seed)
	if err != nil {
		return AblationResult{}, err
	}
	closed := core.NoBuffer
	if r := curveArgmin(curve); r > 0 {
		closed = r
	}
	cf, rCF, err := build(closed)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{
		Name: "cost-model",
		ArmA: fmt.Sprintf("empirical (r=%d)", rEmp),
		ArmB: fmt.Sprintf("closed-form (r=%d)", rCF),
		F1A:  emp.F1, F1B: cf.F1,
		TimeA: emp.AvgQueryTime, TimeB: cf.AvgQueryTime,
		Comment: "both pick a buffer from the same variance function",
	}
	header(w, "Ablation: empirical vs closed-form cost model")
	res.print(w)
	return res, nil
}
