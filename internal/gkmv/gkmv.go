// Package gkmv implements the G-KMV sketch: a KMV sketch with a global hash
// threshold τ (Section IV-A(2) of the paper). Every record keeps *all* hash
// values below τ under one shared hash function. Because the threshold is
// global, the k-th smallest hash value of L_Q ∪ L_X is guaranteed to be the
// k-th smallest hash value of h(Q ∪ X) (Theorem 2), which legitimizes using
//
//	k = |L_Q ∪ L_X|   (Equation 24)
//
// in the KMV estimator — typically far larger than the min(k_Q, k_X) the
// plain KMV sketch is restricted to (Equation 8), and therefore far more
// accurate (Theorem 3).
//
// A stored hash value is a 32-bit key (hash.Key32: the unit hash in 32-bit
// fixed point) — the paper's signature unit. Wherever the estimators need a
// point of the unit interval, key x stands for hash.KeyUnit(x) = (x+1)/2³².
// Two distinct elements share a key with probability 2⁻³², so a pair of runs
// gains ≈ |L_Q|·|L_X|/2³² expected false matches (4e-7 at 40 keys a side),
// whatever the size of the universe; and two elements of one record may
// collide, so a run is ascending but not strictly — the merge treats runs as
// multisets and counts equal keys pairwise.
package gkmv

import (
	"slices"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// View is a read-only G-KMV sketch over externally owned memory: an ascending
// run of keys plus the completeness flag, as BuildHashes returns them. A View
// is a small value (slice header + bool); copy it freely. The underlying run
// must stay ascending and unmodified while any View of it is in use.
type View struct {
	keys     []uint32
	complete bool
}

// MakeView wraps an ascending key run. complete flags that the run covers
// every element of the sketched record (all hashed below τ).
func MakeView(keys []uint32, complete bool) View {
	return View{keys: keys, complete: complete}
}

// K returns the number of stored keys.
func (v View) K() int { return len(v.keys) }

// Summary is all Estimate reads of a sketch beside K∩: its size k, its
// largest key (0 when k is 0) and whether it covers its whole record.
type Summary struct {
	K        int
	Top      uint32
	Complete bool
}

// Summary returns the view's summary.
func (v View) Summary() Summary { return Summary{len(v.keys), last(v.keys), v.complete} }

// BuildHashes computes the raw sketch of a record under threshold tau: the
// ascending run of keys x with hash.KeyUnit(x) ≤ tau, plus whether the run
// covers every element. An index's own threshold is always a key boundary
// (Index.Tau() = KeyUnit(cut)), so BuildHashes(rec, ix.Tau(), seed) is
// exactly the run the index stores for rec's non-buffered elements.
func BuildHashes(r dataset.Record, tau float64, seed uint64) ([]uint32, bool) {
	if tau < 0 || tau > 1 {
		panic("gkmv: threshold must be in [0, 1]")
	}
	cut, any := hash.UnitKey(tau)
	if !any {
		return nil, len(r) == 0
	}
	keys := make([]uint32, 0, int(float64(len(r))*tau)+1)
	for _, e := range r {
		if x := hash.Key32(e, seed); x <= cut {
			keys = append(keys, x)
		}
	}
	slices.Sort(keys)
	return keys, len(keys) == len(r)
}

// Intersection carries the quantities of the G-KMV estimator.
type Intersection struct {
	K      int     // |L_Q ∪ L_X| (Equation 24)
	KInter int     // |L_Q ∩ L_X|
	UK     float64 // KeyUnit of the largest key in L_Q ∪ L_X
	DUnion float64 // (k−1)/U(k)
	DInter float64 // Equation 25
	Exact  bool    // both sketches complete → DInter exact
}

// IntersectViews estimates |A ∩ B| with the G-KMV estimator (Equations
// 24–25), run directly on two ascending key runs: the merge counts K∩, and
// Estimate does the rest.
func IntersectViews(a, b View) Intersection {
	k, kInter, _ := unionStats(a.keys, b.keys)
	res := Intersection{K: k, KInter: kInter, Exact: a.complete && b.complete}
	res.UK, res.DUnion, res.DInter = Estimate(a.Summary(), b.Summary(), kInter)
	return res
}

// Estimate is the closed form of Equations 24–25 given K∩, returning U(k),
// D̂∪ and D̂∩: all it reads of the two sketches beside K∩ is their summaries,
// since k = |L_A| + |L_B| − K∩ and U(k) is the larger of the two largest
// keys. A caller that has counted K∩ some other way (the core index counts
// shared elements, on its posting lists or on a decoded record) scores a
// pair without merging it, and gets IntersectViews' figures to the bit for
// the same K∩.
func Estimate(a, b Summary, kInter int) (uk, dUnion, dInter float64) {
	k := a.K + b.K - kInter
	if k > 0 {
		uk = hash.KeyUnit(max(a.Top, b.Top))
	}
	switch {
	case a.Complete && b.Complete:
		return uk, float64(k), float64(kInter)
	case k < 2:
		return uk, 0, 0
	}
	dUnion = float64(k-1) / uk
	return uk, dUnion, float64(kInter) / float64(k) * dUnion
}

// last returns a run's largest key, 0 for an empty run.
func last(run []uint32) uint32 {
	if len(run) == 0 {
		return 0
	}
	return run[len(run)-1]
}

// unionStats merges two ascending key runs, returning the union size, the
// intersection size, and the largest key (0 when both are empty). The loop
// carries no data-dependent branch: each step turns the three comparisons
// into 0/1 increments (the compiler emits SETcc, not jumps), which on the
// 10–40-key runs of a search — where a three-way switch mispredicts every
// other step — is what the merge costs. Everything the loop does not count
// follows from the lengths: k = |a| + |b| − K∩, and the largest key is the
// larger of the two last ones. Equal keys inside one run pair off one to
// one, as in a multiset.
func unionStats(a, b []uint32) (k, kInter int, top uint32) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		kInter += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return len(a) + len(b) - kInter, kInter, max(last(a), last(b))
}

// b2i is 1 for true and 0 for false; it inlines to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
