package gbkmv

import (
	"fmt"
	"io"

	"gbkmv/internal/snapfmt"
	"gbkmv/internal/topkheap"
)

// The baseline engines share one mechanical skeleton: they retain the record
// collection, derive all signature state deterministically from (records,
// options), and answer Search/TopK/Estimate from a prepared per-query
// signature. This file holds that skeleton so each adapter is only the
// backend-specific sketching and estimation.

// sigEngine is the internal contract a baseline adapter implements to get
// Search/SearchTopK/Estimate/PrepareQuery for free via enginePrepared. The
// sig value is the engine-specific prepared query signature and is treated
// as immutable once built.
type sigEngine interface {
	Engine
	prepareSig(q Record) any
	searchSig(sig any, qSize int, threshold float64) []int
	searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int)
	topkSig(sig any, qSize, k int) []Scored
	estimateSig(sig any, qSize, i int) float64
}

// enginePrepared implements PreparedQuery for every sigEngine: the signature
// is shared (immutable), only the size override is per-instance state, so
// Clone is a struct copy.
type enginePrepared struct {
	e    sigEngine
	sig  any
	size int
}

func (p *enginePrepared) Search(threshold float64) []int {
	return p.e.searchSig(p.sig, p.size, threshold)
}
func (p *enginePrepared) SearchScored(threshold float64, limit int) ([]Scored, int) {
	return p.e.searchScoredSig(p.sig, p.size, threshold, limit)
}
func (p *enginePrepared) TopK(k int) []Scored { return p.e.topkSig(p.sig, p.size, k) }
func (p *enginePrepared) Estimate(i int) float64 {
	return p.e.estimateSig(p.sig, p.size, i)
}
func (p *enginePrepared) Size() int     { return p.size }
func (p *enginePrepared) SetSize(n int) { p.size = n }
func (p *enginePrepared) Clone() PreparedQuery {
	cp := *p
	return &cp
}

// prepareOn builds the shared prepared query for a sigEngine.
func prepareOn(e sigEngine, q Record) PreparedQuery {
	return &enginePrepared{e: e, sig: e.prepareSig(q), size: len(q)}
}

// searchByEstimate scans all n records and returns those whose estimate
// reaches threshold·|Q| semantics, i.e. estimate ≥ threshold, ascending.
func searchByEstimate(n int, threshold float64, est func(i int) float64) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		if est(i) >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// searchScoredByEstimate is the scored form of searchByEstimate for the
// scan-everything engines: the one estimate per record that decides
// membership doubles as the hit's score, so returned ids are never
// re-estimated. The scan runs in ascending id order, so truncating at limit
// while counting the rest keeps the hits/total contract exact.
func searchScoredByEstimate(n int, threshold float64, limit int, est func(i int) float64) ([]Scored, int) {
	hits := []Scored{}
	total := 0
	for i := 0; i < n; i++ {
		s := est(i)
		if s >= threshold {
			total++
			if limit <= 0 || len(hits) < limit {
				hits = append(hits, Scored{ID: i, Score: s})
			}
		}
	}
	return hits, total
}

// scoreCandidates is the scored form for the candidate-generation engines
// (lshforest, lshensemble, exact): their search already returns the full
// result set as ascending ids, so only the hits surviving the limit cut are
// estimated — exactly once each.
func scoreCandidates(cands []int, limit int, est func(i int) float64) ([]Scored, int) {
	total := len(cands)
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	hits := make([]Scored, len(cands))
	for i, id := range cands {
		hits[i] = Scored{ID: id, Score: est(id)}
	}
	return hits, total
}

// topkByEstimate scores the given candidate ids (all n records when cands is
// nil), drops zero estimates, and returns the k best, best first with ties
// broken by ascending id. Selection runs through the shared bounded heap
// (the same one behind the GB-KMV index's pruned top-k), so every registry
// engine pays O(n log k) instead of sorting its full candidate set.
func topkByEstimate(n, k int, cands []int, est func(i int) float64) []Scored {
	if k <= 0 {
		return nil
	}
	h := topkheap.Make(k, nil)
	if cands == nil {
		for i := 0; i < n; i++ {
			if s := est(i); s > 0 {
				h.Push(i, s)
			}
		}
	} else {
		for _, i := range cands {
			if s := est(i); s > 0 {
				h.Push(i, s)
			}
		}
	}
	return h.Sorted()
}

// clamp01 clamps a containment estimate into [0, 1].
func clamp01(c float64) float64 {
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// maxUniverse returns one past the largest element id, the Universe value
// the internal dataset type expects.
func maxUniverse(records []Record) int {
	u := 0
	for _, r := range records {
		if len(r) > 0 {
			if top := int(r[len(r)-1]) + 1; top > u {
				u = top
			}
		}
	}
	return u
}

// totalElements counts element occurrences across the collection.
func totalElements(records []Record) int {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	return n
}

// maxSignatureOption bounds the options that size a MinHash-family
// signature or index (NumHashes, NumPartitions, MaxBands): an order of
// magnitude beyond any useful value (derived signature lengths stop at 512),
// small enough that a damaged snapshot cannot turn one into an allocation or
// an hour of signing.
const maxSignatureOption = 1 << 12

// validate rejects options no engine can be built under. NewEngine and the
// snapshot loaders share it. It puts no ceiling on NumHashes: the kmv engine
// derives k = budget/m without one and saves the resolved k, and there k is
// only a capacity (a sketch holds min(k, |r|) values). The engines that sign
// with NumHashes bound it themselves, in checkSignatureLen.
func (o EngineOptions) validate() error {
	switch {
	case !(o.BudgetFraction >= 0 && o.BudgetFraction <= 1):
		return fmt.Errorf("gbkmv: BudgetFraction %v outside [0, 1]", o.BudgetFraction)
	case o.BudgetUnits < 0:
		return fmt.Errorf("gbkmv: negative BudgetUnits %d", o.BudgetUnits)
	case o.BufferBits < NoBuffer:
		return fmt.Errorf("gbkmv: invalid BufferBits %d", o.BufferBits)
	case o.NumHashes < 0:
		return fmt.Errorf("gbkmv: negative NumHashes %d", o.NumHashes)
	case min(o.NumPartitions, o.MaxBands) < 0, max(o.NumPartitions, o.MaxBands) > maxSignatureOption:
		return fmt.Errorf("gbkmv: NumPartitions and MaxBands must lie in [0, %d]", maxSignatureOption)
	}
	return nil
}

// checkSignatureLen is the first thing the builders of the signing engines
// (minhash, lshforest, lshensemble) do: NumHashes sizes their hash family and
// one signature per record. Loads rebuild through the same builders, so
// whatever builds also reloads.
func (o EngineOptions) checkSignatureLen() error {
	if o.NumHashes > maxSignatureOption {
		return fmt.Errorf("gbkmv: NumHashes %d above %d", o.NumHashes, maxSignatureOption)
	}
	return nil
}

// writeEngineOptions writes the options block shared by the rebuild-on-load
// payload and the segmented container.
func writeEngineOptions(w *snapfmt.Writer, o EngineOptions) {
	w.Float64(o.BudgetFraction)
	w.Int(o.BudgetUnits)
	w.Varint(int64(o.BufferBits))
	w.Uint64(o.Seed)
	w.Int(o.NumHashes)
	w.Int(o.NumPartitions)
	w.Int(o.MaxBands)
}

func readEngineOptions(r *snapfmt.Reader) EngineOptions {
	o := EngineOptions{
		BudgetFraction: r.Float64(),
		BudgetUnits:    r.Int(),
		BufferBits:     int(r.Varint()),
		Seed:           r.Uint64(),
		NumHashes:      r.Int(),
		NumPartitions:  r.Int(),
		MaxBands:       r.Int(),
	}
	if err := o.validate(); err != nil && r.Err() == nil {
		r.Corrupt("%v", err)
	}
	return o
}

// saveRebuildable writes the payload of every rebuild-on-load engine: like
// the core index's inverted lists (see DESIGN.md "Snapshot format"), their
// signatures are deterministic functions of (records, options, seed), so
// only those are stored and the engine is rebuilt through its registered
// builder on load.
func saveRebuildable(w io.Writer, opt EngineOptions, records []Record) error {
	sw := snapfmt.NewWriter(w)
	writeEngineOptions(sw, opt)
	sw.Records(records)
	return sw.Flush()
}

// rebuildParser returns the loader of a rebuild-on-load engine: the stream
// part reads the payload, the finish rebuilds the named engine through the
// registry.
func rebuildParser(name string) engineParser {
	return func(r *snapfmt.Reader) (func() (Engine, error), error) {
		opt := readEngineOptions(r)
		records := r.Records()
		if r.Err() == nil && len(records) == 0 {
			r.Corrupt("engine has no records")
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return func() (Engine, error) { return NewEngine(name, records, opt) }, nil
	}
}
