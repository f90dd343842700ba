package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"gbkmv/internal/bitmap"
	"gbkmv/internal/chunked"
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

	// recs holds the records in their snapshot coding (≈ 1.04–1.09 bytes an
	// occurrence against 8 for a hash.Element): derive, Save, Join, Record
	// and the single-record estimates read them, no search and no insert
	// does. decoded is the Records() shim's materialised copy, nil until that
	// is first called.
	recs      snapfmt.PackedRecords
	decodedMu sync.Mutex
	decoded   []dataset.Record

	bufferElems []hash.Element // E_H in decreasing frequency order
	bitOf       bitTable       // element → buffer bit position

	// bufArena holds every record's H_X buffer in one flat byte store (see
	// bufferArena), read through bufArena.record(i); bufCols is bufArena
	// transposed, a bitmap over record ids per buffer bit (see
	// bufferColumns): the buffer half of candidate generation. sums holds
	// every record's G-KMV summary, one word a record (see summary) — derive
	// lays it out as one slab, an insert appends, a shrink rewrites the words
	// of the records it evicts keys from; the keys are the posting lists',
	// and keys counts them, Σk.
	bufArena bufferArena
	bufCols  bufferColumns
	sums     chunked.Store[summary]
	keys     int

	// cut is the global threshold as a key: a record keeps the keys ≤ cut.
	// τ = hash.KeyUnit(cut), the share of the unit interval kept; τ = 1 is
	// the largest key.
	cut        uint32
	bufferBits int // r: what the budget charges a record; the buffers hold |E_H| ≤ r bits
	budget     int // in signature units

	// Inverted index for accelerated search: the records whose G-KMV sketch
	// holds element e, per kept e (see postingLists).
	postings postingLists

	// scratchPool recycles searchScratch working memory across queries; see
	// scratch.go for the ownership contract.
	scratchPool sync.Pool

	// sel is the threshold shrink's selection memory (see kthSelector),
	// evicted its bitmap of the records it summarises again (resummarise).
	// Both are touched only under the caller's write exclusion, like the rest
	// of the insert path.
	sel     kthSelector
	evicted []uint64

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

// BuildIndex builds the index over the dataset's records, reading its
// slices: the counting pass sizes each record's coding as it counts it, and
// the store the index keeps is coded beside the rest of the build (build.go).
// The dataset is read, not retained, and nothing reads it once BuildIndex has
// returned. A record that is not sorted and deduplicated is an error
// (snapfmt.UnsortedError), found by the counting pass.
func BuildIndex(d *dataset.Dataset, opt Options) (*Index, error) {
	var records []dataset.Record
	if d != nil {
		records = d.Records
	}
	return build(recordSource{slices: records}, opt)
}

// BuildPacked builds the index of a packed record collection, decoding its
// records where BuildIndex reads slices. The index takes the store over: it
// is what the index retains of its records.
func BuildPacked(recs snapfmt.PackedRecords, opt Options) (*Index, error) {
	return build(recordSource{packed: &recs}, opt)
}

// build constructs the GB-KMV index of a record collection (Algorithm 1): it
// chooses r, E_H and τ, and derive (build.go) computes the rest — the same
// function Load runs on a snapshot's (records, E_H, τ). All it reads of the
// records to choose r, E_H and τ is m, n, what the counting pass counts and
// the sizes of the cost model's sampled records.
func build(src recordSource, opt Options) (*Index, error) {
	if err := CheckOptions(opt); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	m := src.len()
	if m == 0 {
		return nil, errors.New("core: empty dataset")
	}
	// The counting pass is the build's and derive's at once: its counters
	// sum to the frequency table shared by the cost model, the choice of E_H
	// and the choice of τ, and derive takes them over.
	counts := countElements(src)
	if counts.unsorted > 0 {
		return nil, fmt.Errorf("core: %w", snapfmt.UnsortedError{Record: counts.unsorted - 1})
	}
	n := counts.occurrences
	budget := Budget(opt, n)
	if budget <= 0 {
		return nil, errors.New("core: budget resolves to zero units")
	}
	recs, wait, err := counts.pack()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer wait()
	freq, at := counts.frequencies()

	// Line 1 of Algorithm 1: pick the buffer size from the cost model (or
	// from the caller's override).
	r := opt.BufferBits
	switch r {
	case AutoBuffer:
		var err error
		r, err = optimalBufferBits(recordStats{freq: freq, m: m, size: src.size}, budget, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: cost model: %w", err)
		}
	case NoBuffer:
		r = 0
	}
	// A byte multiple (rounded up, but for the top seven ints), never the
	// whole budget: a buffer that would take it falls to ⌊2·budget/m⌋·8 bits,
	// half the budget at most and half the r it replaces.
	r = (min(r, math.MaxInt-7) + 7) &^ 7
	if bufferUnits(m, r) >= budget {
		r = (budget/m*2 + budget%m*2/m) * 8
	}

	ix := &Index{
		opt:        opt,
		recs:       recs,
		bufferBits: r,
		budget:     budget,
	}

	// Line 2: E_H ← top r most frequent elements.
	ix.bufferElems = dataset.TopFrequentFrom(freq, at.elems, r)
	ix.bitOf = newBitTable(ix.bufferElems)
	if err := checkShape(m, r, budget, len(ix.bufferElems)); err != nil {
		return nil, fmt.Errorf("core: BufferBits %d: %w", opt.BufferBits, err)
	}
	bufferedOccurrences := 0
	for _, e := range ix.bufferElems {
		bufferedOccurrences += freq[at.position(e)]
	}
	gBudget := budget - bufferUnits(m, r)

	// Line 3: the global threshold τ over the remaining elements, chosen so
	// the G-KMV part fits the leftover budget exactly. When the budget
	// covers every remaining occurrence — decidable from the occurrence
	// count alone — τ is 1 and no order statistic is needed.
	ix.cut = math.MaxUint32
	if remaining := n - bufferedOccurrences; gBudget < remaining {
		ix.cut = ix.selectCut(freq, at, gBudget)
	}

	// Lines 4-6: buffers, per-record sketch runs and the inverted lists.
	if err := ix.derive(counts); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return ix, nil
}

// recordStats is what Algorithm 1's cost model reads of a collection beyond
// n: freq, the number of records holding each element, in no particular
// order; m; and size, the size of record i < m, which the model asks only of
// the records it samples.
type recordStats struct {
	freq []int
	m    int
	size func(i int) int
}

// maxBufferBits bounds r in every index (checkShape).
const maxBufferBits = math.MaxInt32

// bufferUnits is the budget charge of an r-bit buffer across m records
// (r/32 units each, as in the paper's accounting), exact for all m, r ≥ 0:
// one past math.MaxInt reads math.MaxInt, more than any budget.
func bufferUnits(m, r int) int {
	hi, lo := bits.Mul64(uint64(m), uint64(r))
	if hi >= BufferUnitBits/2 {
		return math.MaxInt
	}
	units, _ := bits.Div64(hi, lo, BufferUnitBits)
	return int(units)
}

// checkShape is the rule that makes (m, r, budget, |E_H|) an index over its
// whole life (inserts only grow m): m > 0, 0 ≤ r ≤ maxBufferBits, one
// record's buffer charged less than the budget, and |E_H| ≤ r. The build
// checks what it chose and Load what it read, so Load takes what was built.
func checkShape(m, r, budget, buffered int) error {
	switch {
	case m <= 0:
		return errors.New("no records")
	case r < 0 || r > maxBufferBits:
		return fmt.Errorf("buffer of %d bits outside [0, %d]", r, maxBufferBits)
	case bufferUnits(1, r) >= budget:
		return fmt.Errorf("buffer of %d bits under a budget of %d units", r, budget)
	case buffered > r:
		return fmt.Errorf("%d buffered elements for %d buffer bits", buffered, r)
	}
	return nil
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
// kept 32-bit key plus r/32 per record. O(1): Σk is kept as the keys come
// and go, so the per-insert budget check does not scan the collection.
func (ix *Index) UsedUnits() int {
	return bufferUnits(ix.recs.Len(), ix.bufferBits) + ix.keys
}

// SizeBytes returns the footprint of the signatures in the paper's
// accounting — r bits a record and 4 bytes a kept key — excluding the
// retained records (RecordSizeBytes) and what search walks to find
// candidates (IndexSizeBytes). O(1). The keys are held once, as the posting
// lists' entries, which IndexSizeBytes counts.
func (ix *Index) SizeBytes() int {
	return ix.BufferSizeBytes() + ix.SketchSizeBytes()
}

// BufferSizeBytes returns the footprint of the frequent-element buffers
// alone, O(1).
func (ix *Index) BufferSizeBytes() int { return ix.bufArena.sizeBytes() }

// SketchSizeBytes returns the G-KMV share of SizeBytes, O(1): four bytes a
// kept key, the same 32 bits the budget charges for it.
func (ix *Index) SketchSizeBytes() int { return 4 * ix.keys }

// RecordSizeBytes returns the footprint of the retained records: the packed
// slab and its offsets.
func (ix *Index) RecordSizeBytes() int { return ix.recs.SizeBytes() }

// IndexSizeBytes returns the footprint of what search walks beside the
// buffers: the inverted lists (the 2-byte slots of their gaps — one a key,
// a key being listed exactly once, and two more a gap of 2¹⁶ or more — and a
// listed element's 32-byte header; its 4-byte index slots and its tail's
// links, room and skipped ends not counted), the bit columns (|E_H| bits a
// record) and the records' summaries (8 bytes a record). Like the other
// sizes it counts what is in use, not growth headroom, so an index and its
// reload report the same.
func (ix *Index) IndexSizeBytes() int {
	m := ix.recs.Len()
	columns := len(ix.bufferElems) * ((m + bufWordBits - 1) / bufWordBits) * 8
	return 2*ix.postings.slots + listHeadBytes*ix.postings.live + columns + 8*ix.sums.Len()
}

// QuerySig is the GB-KMV sketch of a query record, reusable across many
// Estimate/Search calls.
type QuerySig struct {
	Size   int // true |Q| (Remark 1: assumed available)
	buffer *bitmap.Bitmap
	// rest holds the query's non-buffered elements with hash ≤ τ, ascending:
	// the elements of L_Q, whose posting lists the search walks.
	rest []hash.Element
	sum  gkmv.Summary // L_Q's size, largest key and completeness
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
// A search's candidates are the records it touched on the query's posting
// lists, each pruned, estimated or accepted on its buffer, and the records on
// none of them that it took off the counter planes on their buffers alone —
// a threshold search's buffer-only hits, a top-k's buffer-only entries —,
// which BufferAccepts counts too.
type QueryStats struct {
	Candidates    int // records touched on the lists, plus buffer-only hits
	PrunedByBound int // candidates dismissed by the K∩ upper-bound prune, never scored
	Estimated     int // G-KMV estimates computed, each from a candidate's K∩
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

// sketchInto fills sig with the query signature, reusing sig's buffer and
// rest slice when their capacity allows. This is the zero-steady-state-
// allocation path behind the sketch-and-search entry points (the reused sig
// lives in the pooled searchScratch); Sketch calls it with a fresh signature.
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
	rest, top := sig.rest[:0], uint32(0)
	for _, e := range q {
		if bit, ok := ix.bitOf.lookup(e); ok {
			sig.buffer.Set(bit)
			continue
		}
		if v := hash.Key32(e, ix.opt.Seed); v <= ix.cut {
			rest, top = append(rest, e), max(top, v)
		}
	}
	// The single-record estimates probe rest against a record's ascending
	// elements. A Record is sorted by contract, so this sort is for a caller
	// that hands in a bare element slice.
	if !slices.IsSorted(rest) {
		slices.Sort(rest)
	}
	sig.Size = len(q)
	sig.rest = rest
	// L_Q is the query's unbuffered elements that hash ≤ τ, not every
	// element of the query, and is flagged "complete" all the same, so that
	// the estimate's exact branch turns on the record's flag alone. K∩ is
	// exact there: under the one global τ, a complete record has every
	// unbuffered element of Q ∩ X hashing ≤ τ, and rest holds each of
	// those, so K∩ counts them all whatever the rest of Q hashes to.
	sig.sum = gkmv.Summary{K: len(rest), Top: top, Complete: true}
}

// qMax returns the unit value of the largest key of L_Q (0 when L_Q is
// empty), the search prunes' lower bound on U(k): the largest key of
// L_Q ∪ L_X is at least the largest key of L_Q alone.
func (sig *QuerySig) qMax() float64 {
	if sig.sum.K == 0 {
		return 0
	}
	return hash.KeyUnit(sig.sum.Top)
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
// |H_Q ∩ H_X| + D̂∩^GKMV, from the K∩ counted on record i's packed record
// (sharedCount), the count the search's posting walk makes.
func (ix *Index) EstimateIntersection(sig *QuerySig, i int) float64 {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	return ix.estimateRecord(sig, i, sc)
}

// estimateRecord is EstimateIntersection over caller-provided scratch.
func (ix *Index) estimateRecord(sig *QuerySig, i int, sc *searchScratch) float64 {
	return float64(ix.bufferOverlap(sig, i)) + ix.countedEstimate(sig, i, ix.sharedCount(sig, i, sc))
}

// sharedCount returns K∩ for record i: the elements of the query's rest
// that record i holds. It is what gather counts for record i on the posting
// lists, read off the decoded record instead: an element of rest is
// unbuffered and hashes ≤ τ, so record i holds it exactly when its posting
// list names i. One pass over two ascending element lists, no hash.
func (ix *Index) sharedCount(sig *QuerySig, i int, sc *searchScratch) int {
	rec := ix.recs.AppendRecord(sc.rec[:0], i)
	sc.rec = rec
	n, j := 0, 0
	for _, e := range sig.rest {
		for j < len(rec) && rec[j] < e {
			j++
		}
		if j < len(rec) && rec[j] == e {
			n++
		}
	}
	return n
}

// countedEstimate is D̂∩^GKMV, the G-KMV part of Equation 27, for record i
// given the pair's K∩, whether counted on the posting lists (a search's
// candidate) or on the decoded record (sharedCount): gkmv.Estimate reads
// only the two sketches' summaries beside it, so it costs O(1).
func (ix *Index) countedEstimate(sig *QuerySig, i, kInter int) float64 {
	_, _, d := gkmv.Estimate(sig.sum, ix.summaryOf(i).gkmv(), kInter)
	return d
}

// EstimateWithError returns the containment estimate together with an
// approximate standard error: the square root of the KMV intersection
// variance (Equation 11) evaluated at the *estimated* D∩, D∪ and the pair's
// G-KMV sketch size k = k_Q + k_X − K∩, divided by |Q|. The buffer part of
// the estimator is exact and contributes no error. For complete (lossless)
// sketches the error is zero.
func (ix *Index) EstimateWithError(sig *QuerySig, i int) (est, stderr float64) {
	if sig.Size <= 0 {
		return 0, 0
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	x, kInter := ix.summaryOf(i).gkmv(), ix.sharedCount(sig, i, sc)
	_, dUnion, dInter := gkmv.Estimate(sig.sum, x, kInter) // countedEstimate's call
	est = min((float64(ix.bufferOverlap(sig, i))+dInter)/float64(sig.Size), 1)
	k := sig.sum.K + x.K - kInter
	if sig.sum.Complete && x.Complete || k <= 2 {
		return est, 0
	}
	v := kmv.Variance(dInter, dUnion, k)
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
	return min(ix.EstimateIntersection(sig, i)/float64(sig.Size), 1)
}
