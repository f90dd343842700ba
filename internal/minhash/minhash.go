// Package minhash implements MinHash signatures (Broder 1997/1998): k
// independent hash functions, each contributing the minimum hash value of a
// record's elements. The collision fraction of two signatures is an unbiased
// estimator of Jaccard similarity (Equations 4–7 of the GB-KMV paper), and —
// via the containment↔Jaccard transformation (Equation 12) — the substrate
// of the LSH-E baseline.
//
// The package also exposes the paper's Taylor-approximation formulas for the
// bias and variance of the MinHash-LSH and LSH-E containment estimators
// (Equations 14–15 and 18–21), which the analysis benchmarks exercise.
package minhash

import (
	"math"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// Signature is a MinHash signature: position i holds the minimum value of
// hash function i over the record's elements.
type Signature []uint64

// Generator signs records with a fixed family of k hash functions.
type Generator struct {
	family *hash.Family
	k      int
}

// NewGenerator creates a generator with k hash functions derived from seed.
func NewGenerator(k int, seed uint64) *Generator {
	return &Generator{family: hash.NewFamily(k, seed), k: k}
}

// K returns the signature length.
func (g *Generator) K() int { return g.k }

// Sign computes the record's signature. An empty record signs as all-max
// values, which collides with nothing in practice.
func (g *Generator) Sign(r dataset.Record) Signature {
	sig := make(Signature, g.k)
	for i := 0; i < g.k; i++ {
		sig[i] = g.family.MinHash64(i, r)
	}
	return sig
}

// Collisions counts positions where the two signatures agree. Signatures
// must have equal length and come from the same generator.
func Collisions(a, b Signature) int {
	c := 0
	for i := range a {
		if a[i] == b[i] {
			c++
		}
	}
	return c
}

// Jaccard estimates J(A, B) as the collision fraction (Equation 5).
func Jaccard(a, b Signature) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(Collisions(a, b)) / float64(len(a))
}

// ContainmentFromJaccard converts a Jaccard similarity s between Q and X to
// the containment of Q in X given the two sizes (Equation 12):
//
//	t = (x/q + 1)·s / (1 + s)
func ContainmentFromJaccard(s float64, x, q int) float64 {
	if q <= 0 {
		return 0
	}
	return (float64(x)/float64(q) + 1) * s / (1 + s)
}

// JaccardFromContainment is the inverse transformation (Equation 12):
//
//	s = t / (x/q + 1 − t)
func JaccardFromContainment(t float64, x, q int) float64 {
	if q <= 0 {
		return 0
	}
	den := float64(x)/float64(q) + 1 - t
	if den <= 0 {
		return 1
	}
	s := t / den
	if s > 1 {
		s = 1
	}
	return s
}

// EstimateContainment estimates C(Q, X) from the two signatures and the true
// record sizes (Equation 14), the per-record MinHash-LSH estimator analyzed
// in Section III-B.
func EstimateContainment(q, x Signature, qSize, xSize int) float64 {
	return ContainmentFromJaccard(Jaccard(q, x), xSize, qSize)
}

// EstimateContainmentUpperBound is the LSH-E estimator t̂' (Equation 15),
// which replaces the true record size x with the partition upper bound u.
func EstimateContainmentUpperBound(q, x Signature, qSize, upperBound int) float64 {
	return ContainmentFromJaccard(Jaccard(q, x), upperBound, qSize)
}

// ExpectationMinHash approximates E[t̂] of the MinHash-LSH containment
// estimator (Equation 18): t·(1 − (1−s)/(k(1+s)²)). Both the true
// containment t and the true Jaccard s must be supplied.
func ExpectationMinHash(t, s float64, k int) float64 {
	return t * (1 - (1-s)/(float64(k)*(1+s)*(1+s)))
}

// VarianceMinHash approximates Var[t̂] (Equation 19):
//
//	D∩²(1−s)[k(1+s)² − s(1−s)] / (q²k²s(1+s)⁴)
func VarianceMinHash(dInter float64, s float64, q, k int) float64 {
	if s <= 0 || q <= 0 || k <= 0 {
		return math.Inf(1)
	}
	kf := float64(k)
	qf := float64(q)
	onePlus := (1 + s) * (1 + s)
	return dInter * dInter * (1 - s) * (kf*onePlus - s*(1-s)) /
		(qf * qf * kf * kf * s * onePlus * onePlus)
}

// ExpectationLSHE approximates E[t̂'] of the LSH-E estimator (Equation 20):
// the MinHash expectation scaled by (u+q)/(x+q), showing the upper-bound
// bias that deteriorates LSH-E's precision.
func ExpectationLSHE(t, s float64, k, u, x, q int) float64 {
	return t * float64(u+q) / float64(x+q) * (1 - (1-s)/(float64(k)*(1+s)*(1+s)))
}

// VarianceLSHE approximates Var[t̂'] (Equation 21): the MinHash variance
// scaled by ((u+q)/(x+q))².
func VarianceLSHE(dInter float64, s float64, q, k, u, x int) float64 {
	scale := float64(u+q) / float64(x+q)
	return scale * scale * VarianceMinHash(dInter, s, q, k)
}
