package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

var updateSearchGolden = flag.Bool("update-search-golden", false, "rewrite testdata/search_golden.txt from this build")

const searchGoldenPath = "testdata/search_golden.txt"

// TestSearchGolden runs the threshold searches over the head of the Zipf query
// pool the query benchmarks draw from (zipfQueries: the DESIGN.md corpus at
// the default budget) on a grid of t* and page limits, and writes one line a
// cell: the summed totals and QueryStats of the scored search, and a digest
// of every query's scored total, hit ids, score bits and QueryStats beside
// SearchSig's ids and QueryStats. Each cell runs 128 queries but t* = 0 with
// no limit, which scores every record by a merge of its own and runs the
// first 4. The golden was written before the two searches shared one
// candidate walk; any change that moves a byte of it changes a result, a
// score or a counter.
func TestSearchGolden(t *testing.T) {
	ix, sigs, _ := zipfQueries(t)
	var out bytes.Buffer
	var buf []byte
	le := binary.LittleEndian
	for _, tstar := range []float64{0, 0.3, 0.5, 0.7, 1} {
		for _, limit := range []int{0, 1, 100} {
			queries := sigs[:128]
			if tstar == 0 && limit == 0 {
				queries = sigs[:4]
			}
			h := sha256.New()
			total, sum := 0, QueryStats{}
			for _, sig := range queries {
				hits, n := ix.SearchSigScored(sig, tstar, limit)
				st := sig.Stats
				total += n
				sum.Candidates += st.Candidates
				sum.PrunedByBound += st.PrunedByBound
				sum.Estimated += st.Estimated
				sum.BufferAccepts += st.BufferAccepts
				buf = appendStats(le.AppendUint64(buf[:0], uint64(n)), st)
				for _, hit := range hits {
					buf = le.AppendUint64(le.AppendUint64(buf, uint64(hit.ID)), math.Float64bits(hit.Score))
				}
				ids := ix.SearchSig(sig, tstar)
				buf = appendStats(le.AppendUint64(buf, uint64(len(ids))), sig.Stats)
				for _, id := range ids {
					buf = le.AppendUint64(buf, uint64(id))
				}
				h.Write(buf)
			}
			fmt.Fprintf(&out, "t*=%g limit=%d: %d queries, total %d, candidates %d, pruned %d, estimated %d, buffer accepts %d, digest %x\n",
				tstar, limit, len(queries), total, sum.Candidates, sum.PrunedByBound, sum.Estimated, sum.BufferAccepts, h.Sum(nil))
		}
	}
	if *updateSearchGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("search results differ from %s:\n%s", searchGoldenPath, out.String())
	}
}

// appendStats appends a query's four counters to a digest buffer.
func appendStats(buf []byte, st QueryStats) []byte {
	for _, v := range []int{st.Candidates, st.PrunedByBound, st.Estimated, st.BufferAccepts} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}
