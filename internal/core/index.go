package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gbkmv/internal/bitmap"
	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
	"gbkmv/internal/kmv"
	"gbkmv/internal/snapfmt"
)

// Index is the GB-KMV sketch of a dataset (Algorithm 1): for every record a
// bitmap buffer H_X over the top-r most frequent elements E_H, plus a G-KMV
// sketch L_X (all hash values ≤ τ) over the remaining elements E_K.
type Index struct {
	opt Options

	// recs holds the records in their snapshot coding (≈ 1.33 bytes an
	// occurrence against 8 for a hash.Element): derive, Save, Join and
	// Record read them, no search and no insert does. decoded is the
	// Records() shim's materialised copy, nil until that is first called.
	recs      snapfmt.PackedRecords
	decodedMu sync.Mutex
	decoded   []dataset.Record

	bufferElems []hash.Element // E_H in decreasing frequency order
	bitOf       bitTable       // element → buffer bit position

	// bufArena holds every record's H_X buffer in one flat byte store (see
	// bufferArena); arena holds every record's G-KMV hash run in one flat
	// CSR layout (see sketchArena). All per-record signature reads go
	// through bufArena.record(i) / arena.view(i). bufCols is bufArena
	// transposed, a bitmap over record ids per buffer bit (see
	// bufferColumns): the buffer half of candidate generation.
	bufArena bufferArena
	bufCols  bufferColumns
	arena    sketchArena

	// cut is the global threshold as a key: a record keeps the keys ≤ cut.
	// τ = hash.KeyUnit(cut), the share of the unit interval kept; τ = 1 is
	// the largest key.
	cut        uint32
	bufferBits int // r: what the budget charges a record; the buffers hold |E_H| ≤ r bits
	budget     int // in signature units

	// Inverted index for accelerated search: the records whose G-KMV sketch
	// holds element e, per kept e (see postingLists).
	postings postingLists
	// bitOrder lists all buffer bits sorted by ascending column popcount
	// (records holding the bit), as derive left it. Search's prefix filter ORs
	// the query's rarest columns in this cached order instead of re-sorting per
	// query; inserts may leave it slightly stale, which affects only which
	// (equally correct) candidate superset is generated, never the results.
	bitOrder []int32

	// scratchPool recycles searchScratch working memory across queries; see
	// scratch.go for the ownership contract.
	scratchPool sync.Pool

	// sel is the threshold shrink's selection memory (see kthSelector), add
	// the working set of the record AddRecords is on — its non-buffered
	// elements, their keys, its sorted run. Both are touched only under the
	// caller's write exclusion, like the rest of the insert path.
	sel kthSelector
	add struct {
		elems     []hash.Element
		keys, run []uint32
	}

	// Write-path work counters, atomic so scrape-time readers never contend
	// with the write lock: every hash.Key32 call of the build, load and
	// insert paths, and every threshold shrink performed.
	elementsHashed atomic.Uint64
	shrinks        atomic.Uint64
}

// BuildCounters returns the monotonic write-path work counters: hash.Key32
// calls — an element's key depends on the element alone, so a build or a load
// hashes each distinct non-buffered element once to classify it (not at
// τ = 1, where every key is kept) and each kept occurrence once to store its
// key, a build hashes each such element once more to select τ, and an insert
// hashes each non-buffered occurrence once — and fixed-budget threshold
// shrinks performed. Safe to call concurrently with reads and writes.
func (ix *Index) BuildCounters() (elementsHashed, shrinks uint64) {
	return ix.elementsHashed.Load(), ix.shrinks.Load()
}

// BuildIndex packs the dataset's records (snapfmt.PackRecords) and builds the
// index over the store. The dataset is read, not retained.
func BuildIndex(d *dataset.Dataset, opt Options) (*Index, error) {
	var records []dataset.Record
	if d != nil {
		records = d.Records
	}
	recs, err := snapfmt.PackRecords(records, buildWorkers(len(records)))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return BuildPacked(recs, opt)
}

// BuildPacked constructs the GB-KMV index of a packed record collection
// (Algorithm 1): it chooses r, E_H and τ, and derive (build.go) computes the
// rest — the same function Load runs on a snapshot's (records, E_H, τ). The
// index takes the store over: it is what the index retains of its records, and
// all the build reads of them to choose r, E_H and τ is m, n and what the
// counting pass counts — the element counts, and the record sizes when the
// cost model asks for them.
func BuildPacked(recs snapfmt.PackedRecords, opt Options) (*Index, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	m, n := recs.Len(), recs.Elements()
	if m == 0 {
		return nil, errors.New("core: empty dataset")
	}
	budget := opt.BudgetUnits
	if budget == 0 {
		budget = int(opt.BudgetFraction * float64(n))
	}
	if budget <= 0 {
		return nil, errors.New("core: budget resolves to zero units")
	}
	// The counting pass is the build's and derive's at once: its counters
	// sum to the frequency table shared by the cost model, the choice of E_H
	// and the choice of τ, and derive takes them over.
	var sizes []int
	if opt.BufferBits == AutoBuffer {
		sizes = make([]int, m)
	}
	counts := countElements(&recs, sizes)
	freq := counts.frequencies()

	// Line 1 of Algorithm 1: pick the buffer size from the cost model (or
	// from the caller's override).
	r := opt.BufferBits
	if r == AutoBuffer {
		var err error
		r, err = optimalBufferBits(recordStats{freq: freq, sizes: sizes}, budget, opt)
		if err != nil {
			return nil, fmt.Errorf("core: cost model: %w", err)
		}
	}
	if r%8 != 0 {
		r += 8 - r%8
	}
	if cost := bufferUnits(m, r); cost >= budget {
		// Never let the buffer consume the entire budget.
		r = ((budget * BufferUnitBits / (2 * m)) / 8) * 8
	}

	ix := &Index{
		opt:        opt,
		recs:       recs,
		bufferBits: r,
		budget:     budget,
	}

	// Line 2: E_H ← top r most frequent elements.
	ix.bufferElems = dataset.TopFrequentFrom(freq, r)
	ix.bitOf = newBitTable(ix.bufferElems)
	bufferedOccurrences := 0
	for _, e := range ix.bufferElems {
		bufferedOccurrences += freq[e]
	}

	gBudget := budget - bufferUnits(m, r)
	if gBudget <= 0 {
		return nil, errors.New("core: no budget left for the G-KMV part")
	}

	// Line 3: the global threshold τ over the remaining elements, chosen so
	// the G-KMV part fits the leftover budget exactly. When the budget
	// covers every remaining occurrence — decidable from the occurrence
	// count alone — τ is 1 and no order statistic is needed.
	ix.cut = math.MaxUint32
	if remaining := n - bufferedOccurrences; gBudget < remaining {
		ix.cut = ix.selectCut(freq, gBudget)
	}

	// Lines 4-6: buffers, per-record sketch runs and the inverted lists.
	if err := ix.derive(counts); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return ix, nil
}

// recordStats is what Algorithm 1's cost model reads of a collection beyond
// m and n: freq[e] is the number of records holding element e, sizes the
// record sizes in record order.
type recordStats struct {
	freq, sizes []int
}

// bufferUnits is the budget charge of an r-bit buffer across m records
// (r/32 units each, as in the paper's accounting).
func bufferUnits(m, r int) int {
	return m * r / BufferUnitBits
}

// NumRecords returns the number of indexed records.
func (ix *Index) NumRecords() int { return ix.recs.Len() }

// Record returns a decoded copy of record i, the caller's to keep.
func (ix *Index) Record(i int) dataset.Record { return ix.recs.Record(i) }

// Records returns every indexed record decoded, 8 bytes an occurrence the
// index otherwise does not hold: the first call materialises them and
// AddRecords keeps the copy in step from then on. Its one caller is the
// benchmark's traced ladder (bench/trace.go), which this module cannot change
// in step with itself; nothing in this module calls it — use Record. The
// slice and its records must not be mutated.
func (ix *Index) Records() []dataset.Record {
	ix.decodedMu.Lock()
	defer ix.decodedMu.Unlock()
	if ix.decoded == nil {
		ix.decoded = ix.recs.All()
	}
	return ix.decoded
}

// Tau returns the global hash threshold in use: the share of the unit
// interval under which elements are kept, always a key boundary (c+1)/2³².
// gkmv.BuildHashes(rec, ix.Tau(), ix.Seed()) keeps exactly what the index
// keeps.
func (ix *Index) Tau() float64 { return hash.KeyUnit(ix.cut) }

// BufferBits returns the buffer size r actually used.
func (ix *Index) BufferBits() int { return ix.bufferBits }

// BufferElements returns E_H, the buffered elements in decreasing frequency
// order. The slice is owned by the index.
func (ix *Index) BufferElements() []hash.Element { return ix.bufferElems }

// BudgetUnits returns the construction budget in signature units.
func (ix *Index) BudgetUnits() int { return ix.budget }

// Seed returns the hash seed the index was built with.
func (ix *Index) Seed() uint64 { return ix.opt.Seed }

// UsedUnits returns the number of budget units actually consumed: one per
// stored 32-bit key plus r/32 per record. O(1): the arena length is the
// stored-hash total, so the per-insert budget check does not scan the
// collection.
func (ix *Index) UsedUnits() int {
	return bufferUnits(ix.recs.Len(), ix.bufferBits) + ix.arena.units()
}

// SizeBytes returns the in-memory footprint of the signatures (buffers +
// sketch arena), excluding the retained records (RecordSizeBytes) and what
// search walks to find candidates (IndexSizeBytes). O(1): both halves live in
// flat arenas whose lengths are the answer.
func (ix *Index) SizeBytes() int {
	return ix.BufferSizeBytes() + ix.SketchSizeBytes()
}

// BufferSizeBytes returns the footprint of the frequent-element buffers
// alone, O(1).
func (ix *Index) BufferSizeBytes() int { return ix.bufArena.sizeBytes() }

// SketchSizeBytes returns the footprint of the G-KMV key store alone, O(1):
// four bytes a unit, the same 32 bits the budget charges for it.
func (ix *Index) SketchSizeBytes() int { return 4 * ix.arena.units() }

// RecordSizeBytes returns the footprint of the retained records: the packed
// slab and its offsets.
func (ix *Index) RecordSizeBytes() int { return ix.recs.SizeBytes() }

// IndexSizeBytes returns the footprint of what search walks beside the
// signatures: the inverted lists (4 bytes a stored key — a key is listed
// exactly once — and a listed element's 32-byte header, its 4-byte index
// slots and its tail's links and unfilled room not counted), the bit columns
// (|E_H| bits a record) and the sketch arena's offset and completeness
// tables. Like the other sizes it counts what is in use, not growth headroom,
// so an index and its reload report the same.
func (ix *Index) IndexSizeBytes() int {
	m := ix.recs.Len()
	columns := len(ix.bufferElems) * ((m + bufWordBits - 1) / bufWordBits) * 8
	return 4*ix.arena.units() + listHeadBytes*ix.postings.live + columns + ix.arena.tableBytes()
}

// QuerySig is the GB-KMV sketch of a query record, reusable across many
// Estimate/Search calls.
type QuerySig struct {
	Size   int // true |Q| (Remark 1: assumed available)
	buffer *bitmap.Bitmap
	sketch gkmv.View
	// rest holds the query's non-buffered elements with hash ≤ τ, used by
	// the inverted-index search.
	rest []hash.Element
	// Stats is overwritten by each search run with the work that search did.
	// It shares the signature's ownership contract: a QuerySig is used by one
	// goroutine at a time, so the stats of the last completed search are
	// always readable by that goroutine without synchronization.
	Stats QueryStats
}

// QueryStats counts the work one search performed, filled into
// QuerySig.Stats by the search entry points. It is the observable behind the
// paper's accuracy/space/latency trade-off: candidate volume and prune
// effectiveness are what the buffer size and budget knobs actually move.
//
// A top-k's candidates are the records on the query's posting lists, each
// pruned or estimated, and the records on none that it scored off the counter
// planes, its BufferAccepts.
type QueryStats struct {
	Candidates    int // records touched by candidate generation
	PrunedByBound int // candidates dismissed by the K∩ upper-bound prune, no merge paid
	Estimated     int // full G-KMV merge estimates performed
	BufferAccepts int // hits settled by the exact buffer part alone
}

// Clone returns a copy of the signature that can be mutated (Size override,
// replacement after a threshold shrink) independently of the original. The
// signature payload — buffer, sketch, rest — is immutable after Sketch and
// is shared, so cloning is one small struct copy.
func (sig *QuerySig) Clone() *QuerySig {
	cp := *sig
	return &cp
}

// Sketch builds the query signature under the index's threshold, seed and
// buffer layout. The returned signature owns its memory and may outlive any
// number of index rebuilds.
func (ix *Index) Sketch(q dataset.Record) *QuerySig {
	sig := &QuerySig{}
	ix.sketchInto(sig, q)
	return sig
}

// sketchInto fills sig with the query signature, reusing sig's buffer,
// rest slice and hash run when their capacity allows. This is the
// zero-steady-state-allocation path behind the sketch-and-search entry
// points (the reused sig lives in the pooled searchScratch); Sketch calls it
// with a fresh signature.
func (ix *Index) sketchInto(sig *QuerySig, q dataset.Record) {
	if h := len(ix.bufferElems); h > 0 {
		if sig.buffer == nil || sig.buffer.Len() != h {
			sig.buffer = bitmap.New(h)
		} else {
			sig.buffer.Reset()
		}
	} else {
		sig.buffer = nil
	}
	rest := sig.rest[:0]
	run := sig.sketch.Keys()[:0]
	for _, e := range q {
		if bit, ok := ix.bitOf.lookup(e); ok {
			sig.buffer.Set(bit)
			continue
		}
		if v := hash.Key32(e, ix.opt.Seed); v <= ix.cut {
			rest = append(rest, e)
			run = append(run, v)
		}
	}
	slices.Sort(run)
	sig.Size = len(q)
	sig.rest = rest
	// Mirrors gkmv.BuildHashes over the prefiltered rest: every element of
	// rest hashes ≤ τ by construction, so the run always covers it
	// ("complete").
	sig.sketch = gkmv.MakeView(run, true)
}

// qMax returns the unit value of the largest key of L_Q (0 when L_Q is
// empty), the search prunes' lower bound on U(k): the largest key of
// L_Q ∪ L_X is at least the largest key of L_Q alone.
func (sig *QuerySig) qMax() float64 {
	keys := sig.sketch.Keys()
	if len(keys) == 0 {
		return 0
	}
	return hash.KeyUnit(keys[len(keys)-1])
}

// bufferOverlap returns |H_Q ∩ H_X_i|, the exact buffered intersection.
func (ix *Index) bufferOverlap(sig *QuerySig, i int) int {
	if sig.buffer == nil || ix.bufArena.stride == 0 {
		return 0
	}
	row, ok := ix.bufArena.builtRow(i)
	if !ok {
		row = ix.bufArena.record(i)
	}
	return sig.buffer.AndCountBytes(row)
}

// EstimateIntersection estimates |Q ∩ X_i| by Equation 27:
// |H_Q ∩ H_X| + D̂∩^GKMV.
func (ix *Index) EstimateIntersection(sig *QuerySig, i int) float64 {
	return float64(ix.bufferOverlap(sig, i)) + gkmv.IntersectViews(sig.sketch, ix.arena.view(i)).DInter
}

// EstimateWithError returns the containment estimate together with an
// approximate standard error: the square root of the KMV intersection
// variance (Equation 11) evaluated at the *estimated* D∩, D∪ and the pair's
// G-KMV sketch size, divided by |Q|. The buffer part of the estimator is
// exact and contributes no error. For complete (lossless) sketches the
// error is zero.
func (ix *Index) EstimateWithError(sig *QuerySig, i int) (est, stderr float64) {
	if sig.Size <= 0 {
		return 0, 0
	}
	exact := ix.bufferOverlap(sig, i)
	res := gkmv.IntersectViews(sig.sketch, ix.arena.view(i))
	est = (float64(exact) + res.DInter) / float64(sig.Size)
	if est > 1 {
		est = 1
	}
	if res.Exact || res.K <= 2 {
		return est, 0
	}
	v := kmv.Variance(res.DInter, res.DUnion, res.K)
	if v < 0 {
		v = 0
	}
	return est, math.Sqrt(v) / float64(sig.Size)
}

// EstimateContainment estimates C(Q, X_i) = |Q ∩ X_i| / |Q|, clamped to
// [0, 1] (the raw intersection estimator can overshoot |Q|; containment
// cannot). Clamping never changes Search results because the search
// threshold θ = t*·|Q| never exceeds |Q|.
func (ix *Index) EstimateContainment(sig *QuerySig, i int) float64 {
	if sig.Size <= 0 {
		return 0
	}
	c := ix.EstimateIntersection(sig, i) / float64(sig.Size)
	if c > 1 {
		c = 1
	}
	return c
}
