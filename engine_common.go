package gbkmv

import (
	"fmt"

	"gbkmv/internal/minhash"
	"gbkmv/internal/topkheap"
)

// A baseline engine — every registered engine but gbkmv and gkmv — retains
// the record collection, derives all signature state deterministically from
// (records, resolved options), and answers from a per-query signature. It
// lives in memory only: built, grown and searched, never saved. What differs
// between baselines is the six decisions of backend; everything else (id
// bookkeeping, the result walk, top-k selection, prepared queries) is
// baseline and baselineQuery, written once.

// backend is what one baseline decides. A sig is the backend's own query
// signature, built by sign and treated as immutable; qSize is the |Q| in
// force (SetSize may have moved it off the signed record's length).
type backend interface {
	// add indexes recs[from:], recs being the whole collection with the new
	// records already appended. Static structures rebuild from recs.
	add(recs []Record, from int) error
	sign(q Record) any
	// estimate returns the containment estimate of the query in record i,
	// within [0, 1].
	estimate(sig any, qSize, i int) float64
	// candidates names the records a threshold search looks at: ids
	// ascending, or every record when all is set (ids is then ignored, so
	// "everything" and "nothing" are never both spelled nil). A final set is
	// the search result as it stands; otherwise a candidate is a hit only if
	// its estimate reaches the threshold.
	candidates(sig any, qSize int, threshold float64) (ids []int, all, final bool)
	// topkCandidates names the records top-k scores, as candidates does.
	topkCandidates(sig any, qSize int) (ids []int, all bool)
	// stats fills in the backend's footprint; Engine and NumRecords are set.
	stats(st *EngineStats)
}

// scanAll is the candidate generation of a backend that has none: search and
// top-k estimate every record.
type scanAll struct{}

func (scanAll) candidates(any, int, float64) ([]int, bool, bool) { return nil, true, false }
func (scanAll) topkCandidates(any, int) ([]int, bool)            { return nil, true }

// signatures is what the three MinHash-family backends retain per record —
// its full signature and, through the records, its true size — and the
// Equation 14 estimate they share.
type signatures struct {
	records []Record
	sigs    []minhash.Signature
}

func (s *signatures) estimate(sig any, qSize, i int) float64 {
	return clamp01(minhash.EstimateContainment(
		sig.(minhash.Signature), s.sigs[i], qSize, len(s.records[i])))
}

// baseline implements Engine over a backend.
type baseline struct {
	name    string
	records []Record
	backend
}

// registerBaseline registers a baseline engine. resolve, when not nil,
// makes the engine's data-dependent option defaults explicit against the
// collection they are derived from, m records of n element occurrences in all
// (kmv's k = budget/m); inserts keep them as built. open builds the empty
// backend under the resolved options, and the records arrive through add —
// on build and on insert.
func registerBaseline(name string, resolve func(m, n int, opt EngineOptions) EngineOptions, open func(EngineOptions) (backend, error)) {
	register(name, func(c *Corpus, opt EngineOptions) (Engine, error) {
		if resolve != nil {
			opt = resolve(c.Len(), c.Elements(), opt)
		}
		b, err := open(opt)
		if err != nil {
			return nil, err
		}
		recs := c.take()
		records := recs.All()
		if err := b.add(records, 0); err != nil {
			return nil, err
		}
		return &baseline{name: name, records: records, backend: b}, nil
	})
}

func (e *baseline) Len() int { return len(e.records) }

// AddBatch appends copies of the records (one array a batch) under the
// options resolved at build time (nothing is re-derived from the grown
// collection) and hands the backend the whole batch at once, so a backend
// that rebuilds pays for it once.
func (e *baseline) AddBatch(recs []Record) []int {
	from := len(e.records)
	slab := make([]Element, 0, totalElements(recs))
	for _, r := range recs {
		slab = append(slab, r...)
		e.records = append(e.records, slab[len(slab)-len(r):len(slab):len(slab)])
	}
	if err := e.add(e.records, from); err != nil {
		// AddBatch cannot report errors, and a backend that built once from
		// these options failing on more records is a programming error.
		panic("gbkmv: " + e.name + " insert: " + err.Error())
	}
	return idRange(from, len(recs))
}

// idRange returns the ids from, from+1, …: what an AddBatch of n records
// onto a collection of from returns, on every engine.
func idRange(from, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = from + i
	}
	return ids
}

func (e *baseline) Search(q Record, threshold float64) []int {
	ids := []int{}
	e.prepare(q).walk(threshold, 0, false, func(id int, _ float64) { ids = append(ids, id) })
	return ids
}

func (e *baseline) SearchTopK(q Record, k int) []Scored { return e.prepare(q).TopK(k) }
func (e *baseline) PrepareQuery(q Record) PreparedQuery { return e.prepare(q) }
func (e *baseline) prepare(q Record) *baselineQuery {
	return &baselineQuery{e: e, sig: e.sign(q), size: len(q)}
}

func (e *baseline) EngineStats() EngineStats {
	st := EngineStats{Engine: e.name, NumRecords: len(e.records)}
	e.stats(&st)
	return st
}

// baselineQuery implements PreparedQuery for every baseline: the signature
// (immutable) and the |Q| in force.
type baselineQuery struct {
	e    *baseline
	sig  any
	size int
}

func (p *baselineQuery) SetSize(n int) { p.size = n }

func (p *baselineQuery) SearchScored(threshold float64, limit int) ([]Scored, int) {
	hits := []Scored{}
	total := p.walk(threshold, limit, true, func(id int, s float64) { hits = append(hits, Scored{ID: id, Score: s}) })
	return hits, total
}

// walk is the one result walk behind Search and SearchScored: it hands emit
// the hits inside the limit and returns how many there are in all. Candidates
// come in ascending id order, so cutting at limit while counting on keeps
// both exact. A verified candidate's one estimate decides membership and is
// its score; a final set is scored only where a score is returned — the hits
// inside the limit, and none when score is false.
func (p *baselineQuery) walk(threshold float64, limit int, score bool, emit func(id int, s float64)) (total int) {
	cands, all, final := p.e.candidates(p.sig, p.size, threshold)
	n := len(cands)
	if all {
		n = len(p.e.records)
	}
	for j := 0; j < n; j++ {
		id := j
		if !all {
			id = cands[j]
		}
		kept := limit <= 0 || total < limit
		var s float64
		if !final || (score && kept) {
			s = p.e.estimate(p.sig, p.size, id)
		}
		if !final && !(s >= threshold) {
			continue
		}
		total++
		if kept {
			emit(id, s)
		}
	}
	return total
}

// TopK scores the backend's top-k candidates, drops zero estimates, and
// selects through the bounded heap the GB-KMV index's top-k uses: best first,
// ties by ascending id, O(n log k).
func (p *baselineQuery) TopK(k int) []Scored {
	if k <= 0 {
		return nil
	}
	cands, all := p.e.topkCandidates(p.sig, p.size)
	n := len(cands)
	if all {
		n = len(p.e.records)
	}
	h := topkheap.Make(k, nil)
	for j := 0; j < n; j++ {
		id := j
		if !all {
			id = cands[j]
		}
		if s := p.e.estimate(p.sig, p.size, id); s > 0 {
			h.Push(id, s)
		}
	}
	return h.AppendSorted(nil)
}

// clamp01 clamps a containment estimate into [0, 1].
func clamp01(c float64) float64 { return min(max(c, 0), 1) }

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

// maxSignatureOption bounds NumHashes where it sizes a MinHash-family
// signature: an order of magnitude beyond any useful value (derived signature
// lengths stop at 512), small enough that it cannot turn into an allocation
// or an hour of signing.
const maxSignatureOption = 1 << 12

// validate rejects options no engine can be built under; NewEngine and
// NewEngineFromCorpus check them. It puts no ceiling on NumHashes: the kmv
// engine derives k = budget/m without one, and there k is only a capacity (a
// sketch holds min(k, |r|) values). The engines that sign
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
	}
	return nil
}

// checkSignatureLen is the first thing the builders of the signing engines
// (minhash, lshforest, lshensemble) do: NumHashes sizes their hash family and
// one signature per record.
func (o EngineOptions) checkSignatureLen() error {
	if o.NumHashes > maxSignatureOption {
		return fmt.Errorf("gbkmv: NumHashes %d above %d", o.NumHashes, maxSignatureOption)
	}
	return nil
}
