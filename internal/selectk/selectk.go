// Package selectk implements in-place quickselect. The index's threshold
// selection ("the budget-th smallest stored key") needs one order statistic,
// not a sorted multiset; quickselect finds it in expected O(n) with no
// allocation.
package selectk

import "cmp"

// Select returns the k-th smallest value of a (k is 0-based), partially
// reordering a in place: afterwards a[k] holds the answer, everything before
// it is ≤ and everything after it is ≥. It panics when k is out of range.
//
// The pivot is a median of three (of nine for large ranges), which is
// expected O(n) on the hash-key inputs this repository feeds it (uniform by
// construction). Duplicate values — key ties from repeated elements across
// records — are handled by a three-way partition, so runs of equal values
// cost one pass instead of quadratic churn.
func Select[T cmp.Ordered](a []T, k int) T {
	if k < 0 || k >= len(a) {
		panic("selectk: k out of range")
	}
	lo, hi := 0, len(a)-1
	for hi-lo > 16 {
		p := pivot(a, lo, hi)
		lt, gt := partition3(a, lo, hi, p)
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p // a[lt..gt] are all equal to p
		}
	}
	insertionSort(a, lo, hi)
	return a[k]
}

// Float64s is Select over unit hash values.
func Float64s(a []float64, k int) float64 { return Select(a, k) }

// pivot picks a pivot value for a[lo..hi]: median of three, upgraded to a
// median of three medians (ninther) for wide ranges.
func pivot[T cmp.Ordered](a []T, lo, hi int) T {
	n := hi - lo + 1
	mid := lo + n/2
	if n > 128 {
		eighth := n / 8
		return median3(
			median3(a[lo], a[lo+eighth], a[lo+2*eighth]),
			median3(a[mid-eighth], a[mid], a[mid+eighth]),
			median3(a[hi-2*eighth], a[hi-eighth], a[hi]),
		)
	}
	return median3(a[lo], a[mid], a[hi])
}

// median3 returns the median of three values.
func median3[T cmp.Ordered](x, y, z T) T {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
		if x > y {
			y = x
		}
	}
	return y
}

// partition3 is a Dutch-national-flag partition of a[lo..hi] around value p:
// on return a[lo..lt-1] < p, a[lt..gt] == p, a[gt+1..hi] > p.
func partition3[T cmp.Ordered](a []T, lo, hi int, p T) (lt, gt int) {
	lt, gt = lo, hi
	for i := lo; i <= gt; {
		switch {
		case a[i] < p:
			a[i], a[lt] = a[lt], a[i]
			lt++
			i++
		case a[i] > p:
			a[i], a[gt] = a[gt], a[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// insertionSort sorts a[lo..hi] in place.
func insertionSort[T cmp.Ordered](a []T, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
