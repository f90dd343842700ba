package gbkmv

import (
	"io"

	"gbkmv/internal/core"
)

// Scored pairs a record id with its estimated containment similarity.
type Scored = core.Scored

// Pair is one containment-join result (Q contains-in X at the threshold).
type Pair = core.Pair

// SearchTopK returns the k records with the highest estimated containment
// C(Q, X), best first. Records with estimate 0 are never returned.
func (ix *Index) SearchTopK(q Record, k int) []Scored {
	return ix.inner.SearchTopK(q, k)
}

// SearchBatch runs Search for every query concurrently, returning per-query
// results in input order.
func (ix *Index) SearchBatch(queries []Record, threshold float64) [][]int {
	return ix.inner.SearchBatch(queries, threshold)
}

// Join computes the approximate containment self-join: all ordered pairs
// (i, j), i ≠ j, with estimated C(X_i, X_j) ≥ threshold.
func (ix *Index) Join(threshold float64) []Pair {
	return ix.inner.Join(threshold)
}

// Save serializes the index; Load reconstructs it bit-for-bit (sketches are
// deterministic in the stored seed).
func (ix *Index) Save(w io.Writer) error { return ix.inner.Save(w) }

// Load reads an index written by Save or SaveEngine; each section goes
// straight from the stream into the slice the index keeps. The stream must
// end where the index does, and is read to that end before anything is
// derived from it (a reader that notes its last Read has timed the two halves
// apart). Anything that does not open with a current-format "GBKMVIDX" header
// is ErrSnapshotFormat: among it the engine container ("GBKMVENG") and the
// segmented one ("GBKMVSEG") that earlier builds wrote around the index.
func Load(r io.Reader) (*Index, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// EstimateWithError returns the estimated containment C(Q, X_i) — Estimate's
// figure, and the score a search gives record i, from the K∩ the search
// counts — together with an approximate standard error: the KMV
// intersection variance (Equation 11 of the paper) evaluated at the
// estimated D̂∩, D̂∪ and the pair's sketch size k = k_Q + k_X − K∩. The
// buffer part is exact, so only the G-KMV part contributes error.
func (ix *Index) EstimateWithError(q Record, i int) (est, stderr float64) {
	return ix.inner.EstimateWithError(ix.inner.Sketch(q), i)
}
