// Package experiments contains the reproduction harness: one driver per
// table and figure of the paper's evaluation (Section V), plus the ablation
// studies called out in DESIGN.md. Each driver builds the synthetic stand-in
// datasets, runs the systems under test, and prints the same rows/series the
// paper reports; structured results are returned for tests and benchmarks.
package experiments

import (
	"fmt"
	"io"
	"time"

	"gbkmv/internal/dataset"
	"gbkmv/internal/eval"
	"gbkmv/internal/kmv"
)

// Config controls a whole experiment run.
type Config struct {
	Seed       int64   // dataset + query sampling seed
	NumQueries int     // queries per dataset (paper uses 200; default 50)
	Threshold  float64 // default containment threshold t* (paper: 0.5)
	Scale      float64 // dataset size multiplier (1.0 = DESIGN.md profiles)
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.NumQueries == 0 {
		c.NumQueries = 50
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// Quick returns a configuration scaled down for fast benchmark iterations.
func Quick() Config {
	return Config{Seed: 42, NumQueries: 15, Threshold: 0.5, Scale: 0.25}.WithDefaults()
}

// generate materializes a profile at the configured scale.
func generate(p dataset.Profile, cfg Config) (*dataset.Dataset, error) {
	pc := p.Config
	if cfg.Scale != 1.0 {
		pc.NumRecords = int(float64(pc.NumRecords) * cfg.Scale)
		if pc.NumRecords < 50 {
			pc.NumRecords = 50
		}
	}
	return dataset.Synthetic(pc, cfg.Seed)
}

// workload bundles a dataset with its query sample and ground truth.
type workload struct {
	data    *dataset.Dataset
	queries []dataset.Record
	truth   [][]int
	tstar   float64
}

func newWorkload(d *dataset.Dataset, cfg Config, tstar float64) *workload {
	queries := d.SampleQueries(cfg.NumQueries, cfg.Seed+1)
	return &workload{
		data:    d,
		queries: queries,
		truth:   eval.GroundTruthAll(d, queries, tstar),
		tstar:   tstar,
	}
}

// run evaluates a searcher on the workload.
func (w *workload) run(s eval.Searcher) eval.Result {
	return eval.Run(s, w.queries, w.truth, w.tstar)
}

// partitionedKMVSearcher splits the element universe into a high-frequency
// and a low-frequency group, keeps an independent KMV sketch per group, and
// sums the two intersection estimates — the strategy Theorem 4 proves
// inferior. It exists for the ablation study.
type partitionedKMVSearcher struct {
	high         map[uint64]bool
	kHigh        int
	kLow         int
	seed         uint64
	sketchesHigh []*kmv.Sketch
	sketchesLow  []*kmv.Sketch
}

func buildPartitionedKMV(d *dataset.Dataset, frac float64, seed uint64) *partitionedKMVSearcher {
	budget := int(frac * float64(d.TotalElements()))
	// Put the top 1% most frequent elements in the high group and split the
	// budget evenly between the groups.
	nHigh := d.Universe / 100
	if nHigh < 1 {
		nHigh = 1
	}
	high := make(map[uint64]bool, nHigh)
	for _, e := range d.TopFrequent(nHigh) {
		high[uint64(e)] = true
	}
	m := d.NumRecords()
	s := &partitionedKMVSearcher{
		high:  high,
		kHigh: kmv.EqualAllocation(budget/2, m),
		kLow:  kmv.EqualAllocation(budget/2, m),
		seed:  seed,
	}
	s.sketchesHigh = make([]*kmv.Sketch, m)
	s.sketchesLow = make([]*kmv.Sketch, m)
	for i, r := range d.Records {
		hi, lo := s.split(r)
		s.sketchesHigh[i] = kmv.Build(hi, s.kHigh, seed)
		s.sketchesLow[i] = kmv.Build(lo, s.kLow, seed)
	}
	return s
}

func (s *partitionedKMVSearcher) split(r dataset.Record) (hi, lo dataset.Record) {
	for _, e := range r {
		if s.high[uint64(e)] {
			hi = append(hi, e)
		} else {
			lo = append(lo, e)
		}
	}
	return hi, lo
}

func (s *partitionedKMVSearcher) Search(q dataset.Record, tstar float64) []int {
	qh, ql := s.split(q)
	sqh := kmv.Build(qh, s.kHigh, s.seed)
	sql := kmv.Build(ql, s.kLow, s.seed)
	theta := tstar * float64(len(q))
	out := []int{}
	for i := range s.sketchesHigh {
		est := kmv.Intersect(sqh, s.sketchesHigh[i]).DInter +
			kmv.Intersect(sql, s.sketchesLow[i]).DInter
		if est >= theta {
			out = append(out, i)
		}
	}
	return out
}

// --- formatting helpers --------------------------------------------------

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
