package main

import (
	"slices"
	"testing"
)

// golden pins every generated input — records, insert stream, query bodies,
// accuracy queries and op schedule — for seed 1 at BENCHMARK.json's
// run_seconds. A change here changes what every later result is measured
// on: it needs a new baseline, and the reason belongs in the commit message.
var golden = map[string]uint64{
	"paper-batch": 0xaad8097ef75de73d,
	"serve-read":  0xf1b0356f5b82ff70,
	"serve-write": 0x65b9395ea6ca911a,
	"serve-mixed": 0x9be84eb10a01a6ca,
}

func TestGoldenDigest(t *testing.T) {
	for _, w := range workloads {
		got := generate(w, 1, defaultSeconds).digest()
		if got != golden[w.name] {
			t.Errorf("%s: seed 1 digest %#x, golden %#x: the inputs changed", w.name, got, golden[w.name])
		}
		if again := generate(w, 1, defaultSeconds).digest(); again != got {
			t.Errorf("%s: two generations from seed 1 differ (%#x, %#x)", w.name, got, again)
		}
		if other := generate(w, 2, defaultSeconds).digest(); other == got {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w.name)
		}
	}
}

func TestGeneratedShape(t *testing.T) {
	for _, w := range workloads {
		in := generate(w, 3, defaultSeconds)
		if len(in.records) != w.records {
			t.Fatalf("%s: %d records, want %d", w.name, len(in.records), w.records)
		}
		elems := 0
		for _, set := range [][][]uint32{in.records, in.inserts, in.pool, in.acc} {
			for _, r := range set {
				if !slices.IsSorted(r) || len(slices.Compact(slices.Clone(r))) != len(r) {
					t.Fatalf("%s: a set is not sorted and distinct: %v", w.name, r)
				}
				if int(r[len(r)-1]) >= genUniverse {
					t.Fatalf("%s: element %d outside the universe", w.name, r[len(r)-1])
				}
			}
		}
		for _, r := range in.records {
			elems += len(r)
		}
		if mean := float64(elems) / float64(len(in.records)); mean < 43 || mean > 51 {
			t.Errorf("%s: %.1f elements per record, want about 47", w.name, mean)
		}
		inserts := 0
		for _, o := range append(slices.Clone(in.main), in.probe...) {
			switch o.kind {
			case opInsert:
				if int(o.arg) != inserts {
					t.Fatalf("%s: insert ops do not walk the insert stream in order", w.name)
				}
				inserts += w.insertBatch
			case opSearch, opTopK:
				if int(o.arg) >= len(in.pool) {
					t.Fatalf("%s: op names query %d of %d", w.name, o.arg, len(in.pool))
				}
			}
		}
		if inserts != len(in.inserts) {
			t.Errorf("%s: schedule inserts %d records, stream holds %d", w.name, inserts, len(in.inserts))
		}
		if len(in.acc) != w.accQueries {
			t.Errorf("%s: %d accuracy queries, want %d", w.name, len(in.acc), w.accQueries)
		}
		for _, q := range in.acc {
			if len(q) < accQueryMin {
				t.Fatalf("%s: accuracy query of %d elements, want >= %d", w.name, len(q), accQueryMin)
			}
		}
	}
}

// TestOracleAgainstMerge checks the inverted-index oracle against the
// definition: a sorted merge of the two sets.
func TestOracleAgainstMerge(t *testing.T) {
	in := generate(workloadByName("serve-mixed").smoke(), 5, 1)
	orc := newOracle(in.records, in.inserts)
	all := append(slices.Clone(in.records), in.inserts...)
	for _, threshold := range []float64{0.3, 0.5, 0.7} {
		truth := orc.truth(in.pool[:50], threshold, 2)
		for qi, q := range in.pool[:50] {
			var want []int32
			for id, x := range all {
				inter, i, j := 0, 0, 0
				for i < len(q) && j < len(x) {
					switch {
					case q[i] < x[j]:
						i++
					case q[i] > x[j]:
						j++
					default:
						inter++
						i++
						j++
					}
				}
				if float64(inter)/float64(len(q)) >= threshold {
					want = append(want, int32(id))
				}
			}
			if !slices.Equal(truth[qi], want) {
				t.Fatalf("t=%.1f query %d: oracle %v, merge %v", threshold, qi, truth[qi], want)
			}
		}
	}
}
