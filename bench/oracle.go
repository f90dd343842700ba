package main

import (
	"sort"
	"sync"
)

// oracle is the benchmark's own ground truth: exact containment
// C(Q, X) = |Q ∩ X| / |Q| over the generated element sets, independent of
// the repo's `exact` engine (which the engine layer checks against it).
// Records are sets, so counting a query's elements through an inverted
// index gives |Q ∩ X| exactly — the same number a sorted merge of the two
// sets gives, without visiting the records that share nothing with Q.
type oracle struct {
	postings [][]int32 // element → ids of the records holding it, ascending
	n        int
}

// newOracle indexes sets; ids are positions in the concatenation.
func newOracle(sets ...[][]uint32) *oracle {
	o := &oracle{postings: make([][]int32, genUniverse)}
	df := make([]int32, genUniverse)
	for _, set := range sets {
		for _, r := range set {
			for _, e := range r {
				df[e]++
			}
		}
	}
	for e, n := range df {
		if n > 0 {
			o.postings[e] = make([]int32, 0, n)
		}
	}
	for _, set := range sets {
		for _, r := range set {
			for _, e := range r {
				o.postings[e] = append(o.postings[e], int32(o.n))
			}
			o.n++
		}
	}
	return o
}

// matches returns, ascending, the ids whose containment of q reaches t.
func (o *oracle) matches(q []uint32, t float64, counts []uint16) []int32 {
	var touched []int32
	for _, e := range q {
		for _, id := range o.postings[e] {
			if counts[id] == 0 {
				touched = append(touched, id)
			}
			counts[id]++
		}
	}
	out := touched[:0]
	for _, id := range touched {
		if float64(counts[id])/float64(len(q)) >= t {
			out = append(out, id)
		}
		counts[id] = 0
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// truth answers every query at t, fanned over workers goroutines.
func (o *oracle) truth(queries [][]uint32, t float64, workers int) [][]int32 {
	out := make([][]int32, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts := make([]uint16, o.n)
			for i := w; i < len(queries); i += workers {
				out[i] = o.matches(queries[i], t, counts)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// confusion pools true/false positives and misses over many queries, the way
// the paper's F-scores are computed.
type confusion struct{ tp, fp, fn int }

// add compares one returned id list with its truth; both ascending.
func (c *confusion) add(truth, got []int32) {
	i, j := 0, 0
	for i < len(truth) && j < len(got) {
		switch {
		case truth[i] < got[j]:
			c.fn++
			i++
		case truth[i] > got[j]:
			c.fp++
			j++
		default:
			c.tp++
			i++
			j++
		}
	}
	c.fn += len(truth) - i
	c.fp += len(got) - j
}

func (c confusion) recall() float64 {
	if c.tp+c.fn == 0 {
		return 1
	}
	return float64(c.tp) / float64(c.tp+c.fn)
}

func (c confusion) precision() float64 {
	if c.tp+c.fp == 0 {
		return 1
	}
	return float64(c.tp) / float64(c.tp+c.fp)
}

func (c confusion) f1() float64 {
	p, r := c.precision(), c.recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
