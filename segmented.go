package gbkmv

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gbkmv/internal/chunked"
	"gbkmv/internal/snapfmt"
	"gbkmv/internal/topkheap"
)

// Segmented shards one logical collection across n independent sub-engines
// ("segments"), each with its own lock. Records route to segments by a
// deterministic content hash, so any two replicas that apply the same journal
// build the same segments. Global record ids are assigned in insert order
// exactly as a single-index engine would assign them (id == journal order);
// the routing table maps a global id to its (segment, local id) pair, and
// within a segment local ids ascend in global-id order — the property that
// lets per-segment results merge into globally ordered results without
// re-sorting.
//
// What segmentation buys:
//
//   - AddBatch partitions a batch by segment and applies the per-segment runs
//     in parallel, so the write-side critical section shrinks from one
//     whole-collection apply to the largest per-segment apply (~1/n), and the
//     rebuild-on-insert engines (exact, lshforest, lshensemble) rebuild only
//     the touched segments.
//   - Search/SearchScored/TopK fan out across segments through a
//     work-stealing pool and merge: threshold results are merged in ascending
//     global-id order, top-k through the shared bounded heap with its
//     strict-below tie rule (score descending, id ascending on ties).
//   - Save streams the segments out one after another and rebuild-on-load
//     engines rebuild in parallel when the snapshot is read back; the
//     per-segment encode times are observable (see SetSaveObserver).
//
// Determinism: with n == 1 every operation is bit-identical to the bare
// inner engine (the budget resolves to the same absolute units before the
// split). With n > 1, engines whose per-record estimates are independent of
// the rest of the collection — exact always; kmv and minhash because the
// signature length is pinned globally before the split — stay bit-identical
// to a single index too. The gbkmv/gkmv sketches derive their global hash
// threshold τ (and gbkmv its buffer element set) from the records in the
// same index, so at n > 1 their estimates are those of n smaller indexes:
// equally principled, not bit-equal. The merge itself is exact for every
// engine: results are always the union of per-segment results under the
// single global tie rule.
//
// A Segmented follows the Engine concurrency contract (concurrent readers,
// externally serialized mutations) and additionally tolerates reads running
// concurrently with one AddBatch: per-segment locks order each segment's
// apply against searches, and the routing table is published only after
// every segment applied. Save may also be called concurrently with AddBatch:
// the two exclude each other (writers wait for the whole save, readers never
// do), so a snapshot always holds a prefix of the global ids. Readers may then observe a batch's records
// segment-by-segment rather than atomically — serving layers that cache
// query results keyed on a collection-wide generation (like internal/server)
// must keep excluding reads during applies, and do.
type Segmented struct {
	inner string        // inner engine registry name
	opt   EngineOptions // per-segment build options, pinned (see pinOptions)
	pin   atomic.Bool   // options pinned against first data

	// writeMu excludes AddBatch and Save from each other: a snapshot must see
	// the routing table and every segment at one point of the insert order.
	// It also guards adding, AddBatch's working memory.
	writeMu sync.Mutex
	adding  segAdd

	routeMu sync.RWMutex
	route   []segRef // global id → (segment, local id)

	segs []*segment

	// searches pools the working memory of fanned-out queries (*segSearch).
	searches sync.Pool

	// onSave, when set, observes each segment's Save encode duration — what a
	// serving layer reports as its snapshot-pause histogram.
	onSave atomic.Value // func(segment int, d time.Duration)
}

// segRef locates a record inside its segment.
type segRef struct {
	seg   uint32
	local uint32
}

// segment is one shard: an engine plus the local→global id map, behind its
// own lock. eng stays nil until the first record routes here (engine
// builders reject empty record sets), so a Segmented may start with more
// segments than records.
type segment struct {
	mu      sync.RWMutex
	eng     Engine
	globals chunked.Store[int] // local id → global id, ascending by construction
}

var _ Engine = (*Segmented)(nil)

// NewSegmented builds the named engine sharded across n segments. Records
// route by content hash; options resolve against the whole record set before
// the per-segment split (see pinOptions). n < 1 is treated as 1; records may
// be empty (segments then build lazily on first insert). The records are
// coded into a Corpus and built from that (NewSegmentedFromCorpus): the slice
// and its records stay the caller's.
func NewSegmented(inner string, n int, records []Record, opt EngineOptions) (*Segmented, error) {
	c, err := packCorpus(records)
	if err != nil {
		return nil, err
	}
	return NewSegmentedFromCorpus(inner, n, c, opt)
}

// NewSegmentedFromCorpus is NewSegmented over a corpus, which it takes over:
// c is empty afterwards. Each segment is built from its own corpus, the coded
// bytes of its records copied out of c — no record is held decoded beyond the
// one a worker is routing — and c's store is dropped before the segment builds
// start; with one segment it is handed on as it is.
func NewSegmentedFromCorpus(inner string, n int, c *Corpus, opt EngineOptions) (*Segmented, error) {
	if inner == "" {
		inner = DefaultEngine
	}
	if _, err := lookupEngine(inner); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	if n > maxSegments {
		return nil, fmt.Errorf("gbkmv: %d segments requested, at most %d supported", n, maxSegments)
	}
	s := &Segmented{inner: inner, opt: opt, segs: make([]*segment, n)}
	for i := range s.segs {
		s.segs[i] = &segment{}
	}
	source := c.take()
	m := source.Len()
	if m == 0 {
		return s, nil
	}
	if err := source.CheckSorted(); err != nil {
		return nil, fmt.Errorf("gbkmv: %w (see NewRecord)", err)
	}
	s.pinOptions(m, source.Elements())
	parts, part := []snapfmt.PackedRecords{source}, make([]uint32, m)
	if n > 1 {
		var err error
		if parts, part, err = source.Partition(n, runtime.GOMAXPROCS(0), s.routeOf); err != nil {
			return nil, fmt.Errorf("gbkmv: %w", err)
		}
		source = snapfmt.PackedRecords{} // the segments hold their copies
	}
	s.route = make([]segRef, m)
	globals := make([][]int, n) // each segment's id map, filled in global order
	for i, seg := range s.segs {
		globals[i] = seg.globals.Bulk(parts[i].Len())[:0]
	}
	for g, i := range part {
		s.route[g] = segRef{seg: i, local: uint32(len(globals[i]))}
		globals[i] = append(globals[i], g)
	}
	err := fanSegmentsErr(n, func(i int) error {
		if parts[i].Len() == 0 {
			return nil
		}
		eng, err := NewEngineFromCorpus(inner, &Corpus{recs: parts[i]}, s.opt)
		parts[i] = snapfmt.PackedRecords{}
		if err != nil {
			return fmt.Errorf("gbkmv: building segment %d: %w", i, err)
		}
		s.segs[i].eng = eng
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// pinOptions resolves data-dependent option defaults against the global
// record set — `records` records of `elements` element occurrences in all —
// and splits the budget across segments: the engine's own resolve runs first
// (kmv's and minhash's k, which each segment would otherwise derive from its
// own records, leaving per-segment estimates incomparable), the absolute
// budget is resolved (so one segment resolves to exactly what the bare engine
// would use), then each segment gets an equal ceil share of the units.
func (s *Segmented) pinOptions(records, elements int) {
	if s.pin.Swap(true) {
		return
	}
	if e, _ := lookupEngine(s.inner); e.resolve != nil {
		s.opt = e.resolve(records, elements, s.opt)
	}
	if units := s.opt.budget(elements); units > 0 {
		n := len(s.segs)
		s.opt.BudgetUnits = (units + n - 1) / n
		s.opt.BudgetFraction = 0
	}
}

// routeOf hashes a record's elements (FNV-1a over the little-endian element
// ids) onto a segment. The hash sees only record content, which journal
// replay reproduces exactly, so replicas route identically.
func (s *Segmented) routeOf(r Record) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var b [8]byte
	for _, e := range r {
		binary.LittleEndian.PutUint64(b[:], uint64(e))
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return int(h % uint64(len(s.segs)))
}

// fan is one run of the work-stealing pool: f(0..n-1) shared out over up to
// GOMAXPROCS goroutines, whoever is free taking the next index, or run inline
// when parallelism cannot help. The state a run needs lives in the fan, so a
// pooled one (segSearch) starts its goroutines without a closure or a wait
// group of its own.
type fan struct {
	f    func(i int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// run shares f(0..n-1) out and returns when all of it is done; the fan can
// then run again.
func (p *fan) run(n int) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			p.f(i)
		}
		return
	}
	p.n = n
	p.next.Store(0)
	p.wg.Add(workers)
	for ; workers > 0; workers-- {
		go p.work()
	}
	p.wg.Wait()
}

func (p *fan) work() {
	defer p.wg.Done()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.f(i)
	}
}

// fanSegments runs f(0..n-1) through a fan of its own — the same
// atomic-counter pool shape the server's batch search uses.
func fanSegments(n int, f func(i int)) {
	p := fan{f: f}
	p.run(n)
}

// fanSegmentsErr is fanSegments for work that can fail: every f runs, and
// the first failure recorded is returned.
func fanSegmentsErr(n int, f func(i int) error) error {
	var first error
	var mu sync.Mutex
	fanSegments(n, func(i int) {
		if err := f(i); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}

// EngineName returns the inner engine's registry name: segmentation is a
// layout property of the collection, not a different sketch.
func (s *Segmented) EngineName() string { return s.inner }

// SegmentCount returns the number of segments.
func (s *Segmented) SegmentCount() int { return len(s.segs) }

// SegmentRecords returns the number of records currently routed to each
// segment — the skew observable behind the server's /stats segments block
// and gbkmv_segment_records metric.
func (s *Segmented) SegmentRecords() []int {
	out := make([]int, len(s.segs))
	for i, seg := range s.segs {
		seg.mu.RLock()
		out[i] = seg.globals.Len()
		seg.mu.RUnlock()
	}
	return out
}

// SetSaveObserver installs a callback observing each segment's Save encode
// duration. Set once at wiring time, before concurrent use.
func (s *Segmented) SetSaveObserver(f func(segment int, d time.Duration)) {
	s.onSave.Store(f)
}

func (s *Segmented) Len() int {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return len(s.route)
}

func (s *Segmented) Record(i int) Record {
	s.routeMu.RLock()
	ref := s.route[i]
	s.routeMu.RUnlock()
	seg := s.segs[ref.seg]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	return seg.eng.Record(int(ref.local))
}

func (s *Segmented) Add(r Record) int { return s.AddBatch([]Record{r})[0] }

// AddBatch partitions the batch by segment and applies the per-segment runs
// in parallel: each worker takes only its segment's write lock, so the
// blocking surface of one insert batch is the largest per-segment apply (and
// only the touched segments of a rebuild-on-insert engine rebuild). Global
// ids are assigned in batch order, exactly as a single-index engine would.
func (s *Segmented) AddBatch(recs []Record) []int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	base := s.Len()
	ids := idRange(base, len(recs))
	if len(recs) == 0 {
		return ids
	}
	if !s.pin.Load() {
		s.pinOptions(len(recs), totalElements(recs))
	}
	a := &s.adding
	if a.f == nil {
		a.f, a.runs = s.applyRun, make([]segRun, len(s.segs))
	}
	// Route the batch into per-segment runs; nothing is published yet.
	a.touched = a.touched[:0]
	for i, seg := range s.segs {
		seg.mu.RLock()
		a.runs[i] = segRun{records: a.runs[i].records[:0], globals: a.runs[i].globals[:0], localBase: seg.globals.Len()}
		seg.mu.RUnlock()
	}
	for i, r := range recs {
		run := &a.runs[s.routeOf(r)]
		run.records = append(run.records, r)
		run.globals = append(run.globals, base+i)
	}
	for i := range a.runs {
		if len(a.runs[i].records) > 0 {
			a.touched = append(a.touched, i)
		}
	}
	a.run(len(a.touched))
	a.refs = slices.Grow(a.refs[:0], len(recs))[:len(recs)]
	for i := range a.runs {
		run := &a.runs[i]
		for j, g := range run.globals {
			a.refs[g-base] = segRef{seg: uint32(i), local: uint32(run.localBase + j)}
		}
		clear(run.records) // the records are the caller's again
	}
	s.routeMu.Lock()
	s.route = append(s.route, a.refs...)
	s.routeMu.Unlock()
	if len(recs) > segAddKeep {
		s.adding = segAdd{} // a replayed journal's worth is not worth keeping
	}
	return ids
}

// segAddKeep is the largest batch whose scratch AddBatch keeps for the next.
const segAddKeep = 1 << 12

// segAdd is the working memory of AddBatch, kept from batch to batch: the
// fan (f bound once, to applyRun), each segment's share of the batch, the
// segments that have one, and the batch's routing entries.
type segAdd struct {
	fan
	runs    []segRun
	touched []int
	refs    []segRef
}

// segRun is one segment's share of an insert batch.
type segRun struct {
	records   []Record
	globals   []int // global ids, in run order
	localBase int   // segment length before this batch
}

// applyRun applies the ti-th touched segment's run under that segment's lock.
func (s *Segmented) applyRun(ti int) {
	i := s.adding.touched[ti]
	run, seg := &s.adding.runs[i], s.segs[i]
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.eng == nil {
		eng, err := NewEngine(s.inner, run.records, s.opt)
		if err != nil {
			// As in baseline.AddBatch: AddBatch cannot report errors, and
			// a registered builder failing on non-empty records under
			// options that already built once is a programming error.
			panic("gbkmv: building segment on insert: " + err.Error())
		}
		seg.eng = eng
	} else {
		seg.eng.AddBatch(run.records)
	}
	for _, g := range run.globals {
		seg.globals.Append(g)
	}
}

func (s *Segmented) Search(q Record, threshold float64) []int {
	return s.PrepareQuery(q).Search(threshold)
}

func (s *Segmented) SearchTopK(q Record, k int) []Scored {
	return s.PrepareQuery(q).TopK(k)
}

func (s *Segmented) Estimate(q Record, i int) float64 {
	return s.PrepareQuery(q).Estimate(i)
}

// PrepareQuery prepares the query against every built segment. Segments
// built after preparation (first insert into a previously empty segment) are
// not visible through this prepared query — the same staleness contract as
// any prepared query against a mutating engine; serving layers re-prepare on
// their collection generation.
func (s *Segmented) PrepareQuery(q Record) PreparedQuery {
	pqs := make([]PreparedQuery, len(s.segs))
	for i, seg := range s.segs {
		seg.mu.RLock()
		if seg.eng != nil {
			pqs[i] = seg.eng.PrepareQuery(q)
		}
		seg.mu.RUnlock()
	}
	return &segmentedQuery{s: s, pqs: pqs, size: len(q)}
}

func (s *Segmented) EngineStats() EngineStats {
	st := EngineStats{Engine: s.inner, NumRecords: s.Len()}
	for _, seg := range s.segs {
		seg.mu.RLock()
		if seg.eng != nil {
			es := seg.eng.EngineStats()
			st.SizeBytes += es.SizeBytes
			st.BufferBytes += es.BufferBytes
			st.SketchBytes += es.SketchBytes
			st.RecordBytes += es.RecordBytes
			st.IndexBytes += es.IndexBytes
			st.BudgetUnits += es.BudgetUnits
			st.UsedUnits += es.UsedUnits
			if es.Tau > st.Tau {
				st.Tau = es.Tau // the coarsest segment threshold
			}
			if es.BufferBits > st.BufferBits {
				st.BufferBits = es.BufferBits
			}
			if st.NumHashes == 0 {
				st.NumHashes = es.NumHashes // pinned equal across segments
			}
		}
		seg.mu.RUnlock()
	}
	return st
}

// BuildCounters sums the segments' write-path work counters.
func (s *Segmented) BuildCounters() (elementsHashed, shrinks uint64) {
	for _, seg := range s.segs {
		seg.mu.RLock()
		if seg.eng != nil {
			h, sh := seg.eng.BuildCounters()
			elementsHashed += h
			shrinks += sh
		}
		seg.mu.RUnlock()
	}
	return
}

// segmentedQuery fans one prepared query out across the segments and merges.
type segmentedQuery struct {
	s    *Segmented
	pqs  []PreparedQuery // nil where the segment had no engine at prepare time
	size int
}

func (q *segmentedQuery) Size() int { return q.size }

func (q *segmentedQuery) SetSize(n int) {
	q.size = n
	for _, pq := range q.pqs {
		if pq != nil {
			pq.SetSize(n)
		}
	}
}

func (q *segmentedQuery) Clone() PreparedQuery {
	cp := &segmentedQuery{s: q.s, pqs: make([]PreparedQuery, len(q.pqs)), size: q.size}
	for i, pq := range q.pqs {
		if pq != nil {
			cp.pqs[i] = pq.Clone()
		}
	}
	return cp
}

// segSearch is the working memory of one fanned-out scored search or top-k:
// the fan, the query's parameters, the per-segment runs its workers fill and
// the merge's cursors and heap. Instances are pooled on the Segmented, and f
// is bound once, when one is made: a steady-state query allocates nothing
// here but what starting its helper goroutines costs.
type segSearch struct {
	fan
	q         *segmentedQuery
	threshold float64
	limit     int
	k         int        // > 0 selects top-k
	runs      [][]Scored // one a segment, under global ids
	totals    []int      // one a segment: the qualifying count of a scored search
	pos       []int      // mergeSorted's cursors
	heap      []Scored   // the top-k merge's heap
}

// fanOut runs the query on every built segment, each under its read lock and
// on its own prepared query (which keeps the PreparedQuery single-goroutine
// contract intact), and returns the runs. The caller puts the segSearch back.
func (q *segmentedQuery) fanOut(threshold float64, limit, k int) *segSearch {
	ss, _ := q.s.searches.Get().(*segSearch)
	if ss == nil {
		n := len(q.s.segs)
		ss = &segSearch{runs: make([][]Scored, n), totals: make([]int, n), pos: make([]int, n)}
		ss.f = ss.segment
	}
	ss.q, ss.threshold, ss.limit, ss.k = q, threshold, limit, k
	ss.run(len(q.pqs))
	ss.q = nil
	return ss
}

// segment answers for segment i and remaps its local ids to global ones.
func (ss *segSearch) segment(i int) {
	run := ss.runs[i][:0]
	ss.runs[i], ss.totals[i] = run, 0
	pq := ss.q.pqs[i]
	if pq == nil {
		return
	}
	seg := ss.q.s.segs[i]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if ss.k > 0 {
		run = pq.AppendTopK(run, ss.k)
	} else {
		// The limit pushes down soundly: the global first-limit-by-id hits
		// are a subset of each segment's first-limit-by-id hits, because
		// local order is global order within a segment.
		run, ss.totals[i] = pq.AppendSearchScored(run, ss.threshold, ss.limit)
	}
	for j := range run {
		run[j].ID = *seg.globals.Ptr(run[j].ID)
	}
	ss.runs[i] = run
}

func (q *segmentedQuery) Search(threshold float64) []int {
	per := make([][]int, len(q.pqs))
	fanSegments(len(q.pqs), func(i int) {
		if q.pqs[i] == nil {
			return
		}
		seg := q.s.segs[i]
		seg.mu.RLock()
		defer seg.mu.RUnlock()
		ids := q.pqs[i].Search(threshold)
		for j, local := range ids {
			ids[j] = *seg.globals.Ptr(local)
		}
		per[i] = ids
	})
	return mergeSorted([]int{}, per, make([]int, len(per)), 0, func(id int) int { return id })
}

func (q *segmentedQuery) SearchScored(threshold float64, limit int) ([]Scored, int) {
	return q.AppendSearchScored([]Scored{}, threshold, limit)
}

func (q *segmentedQuery) AppendSearchScored(dst []Scored, threshold float64, limit int) ([]Scored, int) {
	ss := q.fanOut(threshold, limit, 0)
	total := 0
	for _, t := range ss.totals {
		total += t
	}
	dst = mergeSorted(dst, ss.runs, ss.pos, limit, func(h Scored) int { return h.ID })
	q.s.searches.Put(ss)
	return dst, total
}

func (q *segmentedQuery) TopK(k int) []Scored { return q.AppendTopK(nil, k) }

func (q *segmentedQuery) AppendTopK(dst []Scored, k int) []Scored {
	if k <= 0 {
		return dst
	}
	// Any global top-k member is in its own segment's top-k, so merging the
	// per-segment top-k sets through the shared bounded heap — the same
	// strict-below tie rule (score descending, id ascending on ties) every
	// engine uses — reproduces the single-index result exactly whenever
	// per-record estimates agree.
	ss := q.fanOut(0, 0, k)
	h := topkheap.Make(k, ss.heap)
	for _, run := range ss.runs {
		for _, sc := range run {
			h.Push(sc.ID, sc.Score)
		}
	}
	ss.heap = h.Buf()
	dst = h.AppendSorted(dst)
	q.s.searches.Put(ss)
	return dst
}

func (q *segmentedQuery) Estimate(i int) float64 {
	q.s.routeMu.RLock()
	ref := q.s.route[i]
	q.s.routeMu.RUnlock()
	pq := q.pqs[ref.seg]
	if pq == nil {
		return 0
	}
	seg := q.s.segs[ref.seg]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	return pq.Estimate(int(ref.local))
}

// QueryStats sums the per-segment work counters of the last search.
func (q *segmentedQuery) QueryStats() QueryStats {
	var st QueryStats
	for _, pq := range q.pqs {
		if pq != nil {
			s := pq.QueryStats()
			st.Candidates += s.Candidates
			st.PrunedByBound += s.PrunedByBound
			st.Estimated += s.Estimated
			st.BufferAccepts += s.BufferAccepts
		}
	}
	return st
}

// mergeSorted appends to dst the merge of lists that each ascend by id,
// capped at limit elements (limit <= 0 means no cap). pos is scratch, one
// cursor a list.
func mergeSorted[T any](dst []T, lists [][]T, pos []int, limit int, id func(T) int) []T {
	total, nonEmpty, last := 0, 0, -1
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
			last = i
		}
	}
	if limit > 0 && limit < total {
		total = limit
	}
	if nonEmpty == 1 {
		return append(dst, lists[last][:total]...)
	}
	dst = slices.Grow(dst, total)
	clear(pos)
	for ; total > 0; total-- {
		best, bestID := -1, 0
		for i, l := range lists {
			if pos[i] < len(l) {
				if v := id(l[pos[i]]); best == -1 || v < bestID {
					best, bestID = i, v
				}
			}
		}
		dst = append(dst, lists[best][pos[best]])
		pos[best]++
	}
	return dst
}

// The segmented container stream: its own magic (which LoadEngine dispatches
// on) and the format version, a flags byte (bit0: options pinned), the inner
// engine name, the per-segment build options, the segment and record counts,
// the routing table (one uvarint segment index per record — local ids are
// implied by order), then per segment a presence byte and, when it is 1, the
// segment's SaveEngine stream. Engine streams are self-delimiting, so
// segments carry no length and are never staged. Every piece is
// deterministic, so two replicas with the same records write byte-identical
// containers — the property follower snapshot handoff verifies.
const segmentedMagic = "GBKMVSEG"

// maxSegments bounds the segment count of a collection and so what a
// container may declare (the serving default is GOMAXPROCS).
const maxSegments = 1 << 12

// Save writes the segmented container, streaming each segment's engine
// through one fixed buffer into w. It holds off AddBatch for its duration
// (searches keep running), so the routing table and the segments it writes
// belong to one point of the insert order; each segment's encode duration is
// reported to the SetSaveObserver callback.
func (s *Segmented) Save(w io.Writer) error {
	if len(s.inner) == 0 || len(s.inner) > maxEngineName {
		return fmt.Errorf("gbkmv: engine name %q not serializable", s.inner)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	sw := snapfmt.NewWriter(w)
	sw.Magic(segmentedMagic)
	flags := byte(0)
	if s.pin.Load() {
		flags |= 1
	}
	sw.Byte(flags)
	sw.String(s.inner)
	writeEngineOptions(sw, s.opt)
	sw.Int(len(s.segs))
	sw.Int(len(s.route))
	for _, ref := range s.route {
		sw.Uvarint(uint64(ref.seg))
	}
	onSave, _ := s.onSave.Load().(func(int, time.Duration))
	for i, seg := range s.segs {
		start := time.Now()
		if seg.eng == nil {
			sw.Byte(0)
		} else {
			sw.Byte(1)
			if err := SaveEngine(sw, seg.eng); err != nil {
				sw.Fail(fmt.Errorf("segment %d: %w", i, err))
			}
		}
		if onSave != nil {
			onSave(i, time.Since(start))
		}
	}
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("gbkmv: writing segmented snapshot: %w", err)
	}
	return nil
}

// parseSegmented consumes the container written by Save: the header and
// routing table, then each segment's engine stream in order. The returned
// finish runs the segments' own finishes — deriving inverted lists,
// rebuilding the rebuild-on-load engines — in parallel: that is where a
// restart's CPU goes, and it should use the cores a segmented collection was
// sized to.
func parseSegmented(sr *snapfmt.Reader) (func() (Engine, error), error) {
	sr.Magic(segmentedMagic)
	flags := sr.Byte()
	if sr.Err() == nil && flags > 1 {
		sr.Corrupt("unknown container flags %#x", flags)
	}
	inner := sr.String(maxEngineName)
	opt := readEngineOptions(sr)
	n, nrec := sr.Int(), sr.Int()
	if sr.Err() == nil && (n < 1 || n > maxSegments) {
		sr.Corrupt("implausible segment count %d", n)
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading segmented header: %w", err)
	}
	if _, err := lookupEngine(inner); err != nil {
		return nil, fmt.Errorf("gbkmv: segmented snapshot written by unregistered engine %q", inner)
	}
	s := &Segmented{inner: inner, opt: opt, segs: make([]*segment, n)}
	s.pin.Store(flags&1 != 0)
	counts := make([]int, n)
	s.route = snapfmt.Each(sr, nrec, 1, func() segRef {
		seg := sr.Uvarint()
		if seg >= uint64(n) {
			sr.Corrupt("routing table names segment %d of %d", seg, n)
			return segRef{}
		}
		counts[seg]++
		return segRef{seg: uint32(seg), local: uint32(counts[seg] - 1)}
	})
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading routing table: %w", err)
	}
	globals := make([][]int, n)
	for i := range s.segs {
		s.segs[i] = &segment{}
		globals[i] = s.segs[i].globals.Bulk(counts[i])
	}
	for g, ref := range s.route {
		globals[ref.seg][ref.local] = g
	}
	finishes := make([]func() (Engine, error), n)
	for i := range s.segs {
		switch present := sr.Byte(); {
		case sr.Err() != nil:
		case present == 1:
			finish, err := parseEngine(sr)
			if err != nil {
				return nil, fmt.Errorf("gbkmv: loading segment %d: %w", i, err)
			}
			finishes[i] = finish
		case present != 0:
			sr.Corrupt("segment %d presence byte %d", i, present)
		case counts[i] > 0:
			sr.Corrupt("segment %d has %d routed records but no payload", i, counts[i])
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("gbkmv: loading segment %d: %w", i, err)
		}
	}
	return func() (Engine, error) {
		err := fanSegmentsErr(n, func(i int) error {
			if finishes[i] == nil {
				return nil
			}
			eng, err := finishes[i]()
			if err == nil && eng.EngineName() != inner {
				err = fmt.Errorf("segment engine %q, container says %q", eng.EngineName(), inner)
			}
			if err == nil && eng.Len() != counts[i] {
				err = fmt.Errorf("%w: segment holds %d records, routing table says %d", snapfmt.ErrCorrupt, eng.Len(), counts[i])
			}
			if err != nil {
				return fmt.Errorf("gbkmv: loading segment %d: %w", i, err)
			}
			s.segs[i].eng = eng
			return nil
		})
		if err != nil {
			return nil, err
		}
		return s, nil
	}, nil
}
