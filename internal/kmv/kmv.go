// Package kmv implements the classic K-Minimum-Values sketch of Beyer et al.
// (SIGMOD 2007), the data-independent baseline that GB-KMV augments. A KMV
// synopsis of a record keeps the k smallest unit-interval hash values of its
// elements under one shared hash function; distinct counts, union sizes and
// intersection sizes are then estimated from order statistics (Equations
// 8–11 of the GB-KMV paper).
package kmv

import (
	"math"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// Sketch is a KMV synopsis: the at-most-capacity smallest unit hash values of
// a record, sorted ascending. If the record has fewer distinct elements than
// the capacity, the sketch holds all of them and is exact.
type Sketch struct {
	hashes   []float64 // sorted ascending
	capacity int
	exact    bool // sketch holds every element of the record
}

// Build constructs a size-k KMV sketch of the record under the hash function
// identified by seed. All sketches that will be compared must share the same
// seed (the paper's "one hash function" requirement, Remark 2).
func Build(r dataset.Record, k int, seed uint64) *Sketch {
	if k <= 0 {
		panic("kmv: capacity must be positive")
	}
	hs := make([]float64, len(r))
	for i, e := range r {
		hs[i] = hash.UnitHash(e, seed)
	}
	sort.Float64s(hs)
	exact := len(hs) <= k
	if len(hs) > k {
		hs = hs[:k]
	}
	return &Sketch{hashes: hs, capacity: k, exact: exact}
}

// K returns the number of hash values actually stored (k_X ≤ capacity).
func (s *Sketch) K() int { return len(s.hashes) }

// SizeBytes returns the in-memory footprint of the stored signature.
func (s *Sketch) SizeBytes() int { return 8 * len(s.hashes) }

// Union returns the KMV synopsis L = L_a ⊕ L_b of the union of the two
// underlying records: the k smallest distinct hash values of L_a ∪ L_b with
// k = min(k_a, k_b) (Equation 8). Both sketches must have been built with
// the same hash seed.
func Union(a, b *Sketch) *Sketch {
	k := a.K()
	if b.K() < k {
		k = b.K()
	}
	merged := mergeDistinct(a.hashes, b.hashes)
	// When neither record lost information the merged sketch holds every
	// element of A ∪ B and stays exact; otherwise Equation 8 applies.
	exact := a.exact && b.exact
	if len(merged) > k && !exact {
		merged = merged[:k]
	}
	capacity := a.capacity
	if b.capacity < capacity {
		capacity = b.capacity
	}
	return &Sketch{hashes: merged, capacity: capacity, exact: exact}
}

// mergeDistinct merges two ascending slices, dropping duplicates.
func mergeDistinct(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// intersectCount returns |{v ∈ prefix : v ∈ a ∧ v ∈ b}| where prefix is the
// first k values of the merged sketch.
func intersectCount(a, b []float64, upTo float64) int {
	c := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] <= upTo {
				c++
			}
			i++
			j++
		}
	}
	return c
}

// Intersection holds the quantities of the KMV intersection estimator.
type Intersection struct {
	K        int     // sketch size used (Equation 8)
	KInter   int     // K∩: common hash values within the merged prefix
	UK       float64 // U(k): k-th smallest hash value of the union sketch
	DUnion   float64 // D̂∪ (Equation 9)
	DInter   float64 // D̂∩ (Equation 10)
	ExactAll bool    // both sketches were exact, so DInter is exact
}

// Intersect estimates |A ∩ B| from the two sketches using Equations 8–10.
func Intersect(a, b *Sketch) Intersection {
	u := Union(a, b)
	k := u.K()
	if k == 0 {
		return Intersection{}
	}
	uk := u.hashes[k-1]
	kInter := intersectCount(a.hashes, b.hashes, uk)
	res := Intersection{K: k, KInter: kInter, UK: uk, ExactAll: u.exact}
	if u.exact {
		res.DUnion = float64(k)
		res.DInter = float64(kInter)
		return res
	}
	if k >= 2 && uk > 0 {
		res.DUnion = float64(k-1) / uk
		res.DInter = float64(kInter) / float64(k) * res.DUnion
	}
	return res
}

// ContainmentEstimate estimates C(Q, X) = |Q ∩ X| / |Q| from the two
// sketches given the true query size q (the paper assumes the query size is
// readily available, Remark 1).
func ContainmentEstimate(q, x *Sketch, qSize int) float64 {
	if qSize <= 0 {
		return 0
	}
	return Intersect(q, x).DInter / float64(qSize)
}

// Variance returns the variance of the KMV intersection estimator
// (Equation 11) for true intersection size dInter, true union size dUnion
// and sketch size k. It returns +Inf for k ≤ 2, where the estimator is
// undefined.
func Variance(dInter, dUnion float64, k int) float64 {
	if k <= 2 {
		return math.Inf(1)
	}
	kf := float64(k)
	return dInter * (kf*dUnion - kf*kf - dUnion + kf + dInter) / (kf * (kf - 2))
}

// EqualAllocation returns the per-record signature size ⌊b/m⌋ that Theorem 1
// proves optimal for KMV-based containment search under a total space budget
// of b hash values across m records.
func EqualAllocation(budget, numRecords int) int {
	if numRecords <= 0 {
		return 0
	}
	k := budget / numRecords
	if k < 1 {
		k = 1
	}
	return k
}
