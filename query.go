package gbkmv

import "gbkmv/internal/core"

// Query is a prepared query signature. Preparing once and reusing it
// amortizes the sketching cost over a search and any number of per-record
// estimates, which is how a server answers "search, then score every hit"
// without re-hashing the query.
//
// A Query tracks the index's global threshold: when records added after
// Prepare shrink it (the fixed-budget eviction of Section IV-B), the
// signature is transparently rebuilt before the next use, so results never
// mix sketches from different thresholds.
//
// # Concurrency
//
// A Query is not safe for concurrent use: WithSize/SetSize mutate it, and
// any read may transparently re-sketch after a threshold shrink. Instead of
// preparing from scratch per goroutine, Clone the query — clones share the
// immutable signature data and copy only the mutable tracking state, so a
// library caller that shares one prepared query across goroutines prepares
// once and hands each goroutine a clone. Clones are
// independent afterwards: a threshold-shrink rebuild in one clone never
// touches another. (Reads still must not run concurrently with Index
// mutations such as Add/AddBatch; serialize those externally, as
// internal/server does.)
type Query struct {
	inner *core.Index
	rec   Record
	tau   float64
	sig   *core.QuerySig
}

// Prepare builds the query signature under the index's threshold, seed and
// buffer layout. The record is retained (and must not be mutated) so the
// signature can follow threshold changes.
func (ix *Index) Prepare(q Record) *Query {
	return &Query{
		inner: ix.inner,
		rec:   q,
		tau:   ix.inner.Tau(),
		sig:   ix.inner.Sketch(q),
	}
}

// current returns the signature, re-sketching if the index's threshold has
// shrunk since it was built. The caller's size override survives the
// rebuild.
func (q *Query) current() *core.QuerySig {
	if tau := q.inner.Tau(); tau != q.tau {
		size := q.sig.Size
		q.sig = q.inner.Sketch(q.rec)
		q.sig.Size = size
		q.tau = tau
	}
	return q.sig
}

// Clone returns an independent copy for cheap per-goroutine reuse: the
// prepared signature is shared (it is immutable), only the per-query mutable
// state — the size override and the threshold-tracking rebuild slot — is
// copied. See the type documentation for the concurrency contract.
func (q *Query) Clone() *Query {
	cp := *q
	cp.sig = q.sig.Clone()
	return &cp
}

// SetSize is WithSize without the chaining return, satisfying the
// PreparedQuery contract.
func (q *Query) SetSize(n int) { q.sig.Size = n }

// WithSize overrides the true query size |Q| and returns the query. Use it
// when q had to omit elements that cannot appear in any indexed record
// (e.g. query tokens unknown to the vocabulary): such elements still belong
// to Q and shrink the containment C(Q, X) = |Q ∩ X| / |Q|.
func (q *Query) WithSize(n int) *Query {
	q.sig.Size = n
	return q
}

// Size returns the query size |Q| in use.
func (q *Query) Size() int { return q.sig.Size }

// Search returns the ids of all records whose estimated containment
// similarity is at least threshold, in ascending order.
func (q *Query) Search(threshold float64) []int {
	return q.inner.SearchSig(q.current(), threshold)
}

// SearchScored returns the hits Search would return with their containment
// estimates attached, ascending by id, plus the total qualifying count.
// limit > 0 caps the materialized hits. A hit's score is the estimate that
// admitted it, so "search, then score every hit" needs no second estimate.
func (q *Query) SearchScored(threshold float64, limit int) (hits []Scored, total int) {
	return q.inner.SearchSigScored(q.current(), threshold, limit)
}

// AppendSearchScored is SearchScored with the hits appended to dst; with room
// in dst it allocates nothing.
func (q *Query) AppendSearchScored(dst []Scored, threshold float64, limit int) (hits []Scored, total int) {
	return q.inner.AppendSearchSigScored(dst, q.current(), threshold, limit)
}

// TopK returns the k records with the highest estimated containment, best
// first. Records with estimate 0 are never returned.
func (q *Query) TopK(k int) []Scored {
	return q.inner.SearchTopKSig(q.current(), k)
}

// AppendTopK is TopK with the results appended to dst; with room in dst it
// allocates nothing.
func (q *Query) AppendTopK(dst []Scored, k int) []Scored {
	return q.inner.AppendTopKSig(dst, q.current(), k)
}

// Estimate returns the estimated containment C(Q, X_i).
func (q *Query) Estimate(i int) float64 {
	return q.inner.EstimateContainment(q.current(), i)
}

// EstimateWithError returns the containment estimate for record i together
// with an approximate standard error (see Index.EstimateWithError).
func (q *Query) EstimateWithError(i int) (est, stderr float64) {
	return q.inner.EstimateWithError(q.current(), i)
}

// QueryStats counts the work one search performed: candidates generated,
// candidates dismissed by the upper-bound prune without an estimate,
// estimates computed, and hits settled by the exact buffer part alone. These
// are the observables behind the paper's accuracy/space/latency trade-off —
// the buffer and budget knobs move exactly these numbers.
type QueryStats = core.QueryStats

// QueryStats returns the work counters of the most recent Search,
// SearchScored or TopK call on this query. It follows the Query concurrency
// contract: read it from the goroutine that ran the search (clones report
// their own searches independently).
func (q *Query) QueryStats() QueryStats { return q.sig.Stats }
