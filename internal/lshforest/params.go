package lshforest

import (
	"math"
	"sync"
	"sync/atomic"
)

// The banding tuner of LSH Ensemble (Zhu et al., VLDB 2016), which the
// asymmetric minwise hashing baseline borrows: a forest of l trees of depth
// maxDepth, probed at Jaccard threshold s*, takes the (b, r) — b ≤ l trees at
// prefix depth r ≤ maxDepth — that minimizes the false-positive plus
// false-negative probability mass under the uniform-similarity assumption the
// paper adopts:
//
//	FP(b,r | s*) = ∫₀^{s*} 1−(1−s^r)^b ds
//	FN(b,r | s*) = ∫_{s*}^{1} (1−s^r)^b ds
//
// The minimizers over a grid of s* are a pure function of the shape
// (l, maxDepth), and a table takes tens of milliseconds at the 256-hash shape.
// So each shape's table is computed once per process, by the first forest of
// that shape to be probed, and read by every forest of the shape from then on.

type bandParam struct{ b, r int }

// paramGrid is the resolution of the table: entry i is for s* = i / paramGrid.
const paramGrid = 50

// paramTable is one shape's table, computed on first use.
type paramTable struct {
	once        sync.Once
	l, maxDepth int
	params      [paramGrid + 1]bandParam
}

var (
	tables         sync.Map     // [2]int{l, maxDepth} → *paramTable
	tablesComputed atomic.Int64 // tables computed in this process, one a shape
)

// tableFor returns the shape's table, not yet computed if no forest of the
// shape has been probed.
func tableFor(l, maxDepth int) *paramTable {
	key := [2]int{l, maxDepth}
	t, ok := tables.Load(key)
	if !ok {
		t, _ = tables.LoadOrStore(key, &paramTable{l: l, maxDepth: maxDepth})
	}
	return t.(*paramTable)
}

// Shape splits a signature of numHashes values into the most trees, at most
// maxBands, that divide it evenly: l trees of depth numHashes / l. Both must
// be positive.
func Shape(numHashes, maxBands int) (l, depth int) {
	l = maxBands
	for numHashes%l != 0 {
		l--
	}
	return l, numHashes / l
}

// OptimalParams returns the (b, r) that minimizes FP+FN at the grid point
// nearest Jaccard threshold sStar, which is clamped to [0, 1]. The first call
// for a shape computes its table; calls from any goroutines are safe.
func (f *Forest) OptimalParams(sStar float64) (b, r int) {
	if !(sStar > 0) {
		sStar = 0
	}
	if sStar > 1 {
		sStar = 1
	}
	f.params.once.Do(f.params.compute)
	p := f.params.params[int(math.Round(sStar*paramGrid))]
	return p.b, p.r
}

func (t *paramTable) compute() {
	for i := 0; i <= paramGrid; i++ {
		sStar := float64(i) / paramGrid
		best := bandParam{b: t.l, r: 1}
		bestCost := math.Inf(1)
		for r := 1; r <= t.maxDepth; r++ {
			for b := 1; b <= t.l; b++ {
				cost := integrate(0, sStar, func(s float64) float64 {
					return collisionProb(s, b, r)
				}) + integrate(sStar, 1, func(s float64) float64 {
					return 1 - collisionProb(s, b, r)
				})
				if cost < bestCost {
					bestCost = cost
					best = bandParam{b: b, r: r}
				}
			}
		}
		t.params[i] = best
	}
	tablesComputed.Add(1)
}

// collisionProb is the banding collision probability 1 − (1 − s^r)^b.
func collisionProb(s float64, b, r int) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// integrate is Simpson's rule with a fixed 24-interval mesh — plenty for the
// smooth collision-probability curves.
func integrate(a, b float64, f func(float64) float64) float64 {
	if b <= a {
		return 0
	}
	const n = 24
	h := (b - a) / n
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
