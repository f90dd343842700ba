package gbkmv

import (
	"fmt"
	"io"

	"gbkmv/internal/minhash"
	"gbkmv/internal/snapfmt"
	"gbkmv/internal/topkheap"
)

// A baseline engine — every registered engine but gbkmv and gkmv — retains
// the record collection, derives all signature state deterministically from
// (records, resolved options), and answers from a per-query signature. What
// differs between baselines is the six decisions of backend; everything else
// (id bookkeeping, the result walk, top-k selection, prepared queries, the
// snapshot payload) is baseline and baselineQuery, written once.

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
	opt     EngineOptions // resolved (see engineEntry): what Save stores and a load rebuilds from
	records []Record
	backend
}

// registerBaseline registers a baseline engine: open builds the empty
// backend under resolved options, and the records arrive through add — on
// build, on load (the payload is options and records; signatures are
// deterministic in them, so a load rebuilds through NewEngineFromCorpus) and
// on insert.
func registerBaseline(name string, resolve func(m, n int, opt EngineOptions) EngineOptions, open func(EngineOptions) (backend, error)) {
	register(name, engineEntry{
		resolve: resolve,
		build: func(c *Corpus, opt EngineOptions) (Engine, error) {
			b, err := open(opt)
			if err != nil {
				return nil, err
			}
			recs := c.take()
			records := recs.All()
			if err := b.add(records, 0); err != nil {
				return nil, err
			}
			return &baseline{name: name, opt: opt, records: records, backend: b}, nil
		},
		parse: func(r *snapfmt.Reader) (func() (Engine, error), error) {
			opt := readEngineOptions(r)
			c := &Corpus{recs: r.Packed()}
			if r.Err() == nil && c.Len() == 0 {
				r.Corrupt("engine has no records")
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			return func() (Engine, error) { return NewEngineFromCorpus(name, c, opt) }, nil
		},
	})
}

func (e *baseline) EngineName() string  { return e.name }
func (e *baseline) Len() int            { return len(e.records) }
func (e *baseline) Record(i int) Record { return e.records[i] }

func (e *baseline) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

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

func (e *baseline) Search(q Record, threshold float64) []int { return e.prepare(q).Search(threshold) }
func (e *baseline) SearchTopK(q Record, k int) []Scored      { return e.prepare(q).TopK(k) }
func (e *baseline) Estimate(q Record, i int) float64         { return e.prepare(q).Estimate(i) }
func (e *baseline) PrepareQuery(q Record) PreparedQuery      { return e.prepare(q) }

func (e *baseline) prepare(q Record) *baselineQuery {
	return &baselineQuery{e: e, sig: e.sign(q), size: len(q)}
}

func (e *baseline) EngineStats() EngineStats {
	st := EngineStats{Engine: e.name, NumRecords: len(e.records)}
	e.stats(&st)
	return st
}

// BuildCounters is zero: no baseline counts its write-path work.
func (e *baseline) BuildCounters() (elementsHashed, shrinks uint64) { return 0, 0 }

// Save writes the resolved options and the records. Resolved, because the
// data-dependent defaults (kmv's k, minhash's signature length) come from the
// collection as it was built and inserts do not re-derive them: a load that
// derived them from the grown records would build other sketches than the
// ones that answered before the snapshot.
func (e *baseline) Save(w io.Writer) error {
	sw := snapfmt.NewWriter(w)
	writeEngineOptions(sw, e.opt)
	sw.Records(e.records)
	return sw.Flush()
}

// baselineQuery implements PreparedQuery for every baseline: the signature
// is shared (immutable), only the size override is per-instance state, so
// Clone is a struct copy.
type baselineQuery struct {
	e    *baseline
	sig  any
	size int
}

func (p *baselineQuery) Size() int              { return p.size }
func (p *baselineQuery) SetSize(n int)          { p.size = n }
func (p *baselineQuery) Estimate(i int) float64 { return p.e.estimate(p.sig, p.size, i) }

// QueryStats is zero: no baseline counts its search work.
func (p *baselineQuery) QueryStats() QueryStats { return QueryStats{} }

func (p *baselineQuery) Clone() PreparedQuery {
	cp := *p
	return &cp
}

func (p *baselineQuery) Search(threshold float64) []int {
	ids := []int{}
	p.walk(threshold, 0, false, func(id int, _ float64) { ids = append(ids, id) })
	return ids
}

func (p *baselineQuery) SearchScored(threshold float64, limit int) ([]Scored, int) {
	return p.AppendSearchScored([]Scored{}, threshold, limit)
}

func (p *baselineQuery) AppendSearchScored(dst []Scored, threshold float64, limit int) ([]Scored, int) {
	total := p.walk(threshold, limit, true, func(id int, s float64) { dst = append(dst, Scored{ID: id, Score: s}) })
	return dst, total
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

func (p *baselineQuery) TopK(k int) []Scored { return p.AppendTopK(nil, k) }

// AppendTopK scores the backend's top-k candidates, drops zero estimates, and
// selects through the bounded heap the GB-KMV index's top-k uses: best first,
// ties by ascending id, O(n log k).
func (p *baselineQuery) AppendTopK(dst []Scored, k int) []Scored {
	if k <= 0 {
		return dst
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
	return h.AppendSorted(dst)
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
