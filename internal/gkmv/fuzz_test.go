package gkmv

import (
	"math"
	"slices"
	"testing"

	"gbkmv/internal/hash"
)

// runFromBytes derives an ascending key run from fuzz input. Each byte pair
// (value, position) seeds one key through the repository's own hash, except
// that a zero byte repeats the previous key: real runs are ascending but not
// strictly so (two elements of one record can collide in 32 bits), and the
// merge must count such in-run duplicates as the multiset they are. Both runs
// of a fuzz case share the seed, so equal (value, position) pairs tie across
// runs.
func runFromBytes(b []byte, seed uint64) []uint32 {
	run := make([]uint32, 0, len(b))
	for i, x := range b {
		if x == 0 && len(run) > 0 {
			run = append(run, run[len(run)-1])
			continue
		}
		run = append(run, hash.Key32(hash.Element(uint64(x)<<8|uint64(i&0xFF)), seed))
	}
	slices.Sort(run)
	return run
}

// multisetStats is the map oracle: each key counts max(in a, in b) times in
// the union and min(in a, in b) times in the intersection.
func multisetStats(a, b []uint32) (k, kInter int, top uint32) {
	counts := map[uint32][2]int{}
	for _, v := range a {
		c := counts[v]
		c[0]++
		counts[v] = c
	}
	for _, v := range b {
		c := counts[v]
		c[1]++
		counts[v] = c
	}
	for v, c := range counts {
		k += max(c[0], c[1])
		kInter += min(c[0], c[1])
		top = max(top, v)
	}
	return k, kInter, top
}

// plainUnionStats is the three-way merge unionStats replaced: one branch per
// step, every quantity counted as the walk meets it.
func plainUnionStats(a, b []uint32) (k, kInter int, top uint32) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			top = a[i]
			i++
		case a[i] > b[j]:
			top = b[j]
			j++
		default:
			top = a[i]
			kInter++
			i++
			j++
		}
		k++
	}
	for ; i < len(a); i++ {
		top = a[i]
		k++
	}
	for ; j < len(b); j++ {
		top = b[j]
		k++
	}
	return k, kInter, top
}

// FuzzIntersectViews cross-checks the branch-free merge behind
// IntersectViews against a naive map-based multiset oracle and against the
// plain three-way merge, and Estimate from the oracle's K∩ against
// IntersectViews, over arbitrary ascending key runs and completeness flags. CI runs this briefly (-fuzz FuzzIntersectViews -fuzztime 15s) on
// every push.
func FuzzIntersectViews(f *testing.F) {
	f.Add([]byte{}, []byte{}, false, false)
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, true, true)
	f.Add([]byte{0, 0, 0, 7}, []byte{7}, true, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{}, false, true)
	f.Add([]byte{5, 6, 7, 8}, []byte{5, 6, 9, 8}, false, false)    // cross-run ties
	f.Add([]byte{3, 0, 0, 9}, []byte{3, 0, 4, 9, 0}, false, false) // in-run duplicates, tied across runs
	f.Fuzz(func(t *testing.T, ab, bb []byte, compA, compB bool) {
		a := runFromBytes(ab, 11)
		b := runFromBytes(bb, 11)
		got := IntersectViews(MakeView(a, compA), MakeView(b, compB))

		k, kInter, top := multisetStats(a, b)
		if got.K != k || got.KInter != kInter {
			t.Fatalf("K=%d KInter=%d, oracle K=%d KInter=%d", got.K, got.KInter, k, kInter)
		}
		// The closed form from a K∩ counted elsewhere is the merge's to the bit.
		if uk, du, di := Estimate(MakeView(a, compA).Summary(), MakeView(b, compB).Summary(), kInter); uk != got.UK || du != got.DUnion || di != got.DInter {
			t.Fatalf("Estimate from K∩=%d: U(k)=%v D̂∪=%v D̂∩=%v, IntersectViews %+v", kInter, uk, du, di, got)
		}
		if pk, pInter, pTop := plainUnionStats(a, b); pk != k || pInter != kInter || pTop != top {
			t.Fatalf("plain merge K=%d KInter=%d top=%d, oracle %d %d %d", pk, pInter, pTop, k, kInter, top)
		}
		uk := 0.0
		if k > 0 {
			uk = hash.KeyUnit(top)
		}
		if got.UK != uk {
			t.Fatalf("UK=%v, oracle %v", got.UK, uk)
		}

		// The estimator identities on top of the merge stats.
		wantExact := compA && compB
		if got.Exact != wantExact {
			t.Fatalf("Exact=%v, want %v", got.Exact, wantExact)
		}
		switch {
		case wantExact:
			if got.DUnion != float64(k) || got.DInter != float64(kInter) {
				t.Fatalf("exact path: DUnion=%v DInter=%v, want %d %d", got.DUnion, got.DInter, k, kInter)
			}
		case k >= 2:
			wantDU := float64(k-1) / uk
			wantDI := float64(kInter) / float64(k) * wantDU
			if math.Abs(got.DUnion-wantDU) > 1e-12*wantDU || math.Abs(got.DInter-wantDI) > 1e-12*wantDU {
				t.Fatalf("DUnion=%v DInter=%v, want %v %v", got.DUnion, got.DInter, wantDU, wantDI)
			}
		default:
			if got.DUnion != 0 || got.DInter != 0 {
				t.Fatalf("degenerate case should estimate 0, got DUnion=%v DInter=%v", got.DUnion, got.DInter)
			}
		}

		// The pruning bound the core search relies on: with qMax the unit
		// value of the largest key of A (the query side), DInter ≤ K∩/qMax.
		if len(a) > 0 && got.KInter > 0 {
			if qMax := hash.KeyUnit(a[len(a)-1]); got.DInter > float64(got.KInter)/qMax*(1+1e-12) {
				t.Fatalf("prune bound violated: DInter=%v > K∩/qMax=%v", got.DInter, float64(got.KInter)/qMax)
			}
		}
	})
}
