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

var (
	updateSearchResults = flag.Bool("update-search-results", false, "rewrite testdata/search_results_golden.txt from this build")
	updateSearchStats   = flag.Bool("update-search-stats", false, "rewrite testdata/search_stats_golden.txt from this build")
)

const (
	searchResultsPath = "testdata/search_results_golden.txt"
	searchStatsPath   = "testdata/search_stats_golden.txt"
)

// TestSearchGolden runs the threshold searches over the head of the Zipf query
// pool the query benchmarks draw from (zipfQueries: the DESIGN.md corpus at
// the default budget), 128 queries on each cell of a grid of t* and page
// limits, and writes two goldens of a line a cell. The results golden holds
// the summed scored totals and a digest of every query's scored total, hit
// ids and score bits beside SearchSig's ids: it was written before the
// threshold search read its buffer-only hits off the counter planes, and a
// change that moves a byte of it changes a result or a score. The counters
// golden holds the summed QueryStats of the scored search and a digest of
// both searches' QueryStats a query: what the searches count as their work,
// which a change to candidate generation may move and names when it does.
func TestSearchGolden(t *testing.T) {
	ix, sigs, _ := zipfQueries(t)
	var results, counters bytes.Buffer
	var rbuf, sbuf []byte
	le := binary.LittleEndian
	for _, tstar := range []float64{0, 0.3, 0.5, 0.7, 1} {
		for _, limit := range []int{0, 1, 100} {
			queries := sigs[:128]
			rh, sh := sha256.New(), sha256.New()
			total, sum := 0, QueryStats{}
			for _, sig := range queries {
				hits, n := ix.SearchSigScored(sig, tstar, limit)
				st := sig.Stats
				total += n
				sum.Candidates += st.Candidates
				sum.PrunedByBound += st.PrunedByBound
				sum.Estimated += st.Estimated
				sum.BufferAccepts += st.BufferAccepts
				rbuf = le.AppendUint64(rbuf[:0], uint64(n))
				for _, hit := range hits {
					rbuf = le.AppendUint64(le.AppendUint64(rbuf, uint64(hit.ID)), math.Float64bits(hit.Score))
				}
				ids := ix.SearchSig(sig, tstar)
				rbuf = le.AppendUint64(rbuf, uint64(len(ids)))
				for _, id := range ids {
					rbuf = le.AppendUint64(rbuf, uint64(id))
				}
				rh.Write(rbuf)
				sh.Write(appendStats(appendStats(sbuf[:0], st), sig.Stats))
			}
			fmt.Fprintf(&results, "t*=%g limit=%d: %d queries, total %d, digest %x\n",
				tstar, limit, len(queries), total, rh.Sum(nil))
			fmt.Fprintf(&counters, "t*=%g limit=%d: %d queries, candidates %d, pruned %d, estimated %d, buffer accepts %d, digest %x\n",
				tstar, limit, len(queries), sum.Candidates, sum.PrunedByBound, sum.Estimated, sum.BufferAccepts, sh.Sum(nil))
		}
	}
	checkSearchGolden(t, searchResultsPath, results.Bytes(), *updateSearchResults)
	checkSearchGolden(t, searchStatsPath, counters.Bytes(), *updateSearchStats)
}

// checkSearchGolden compares got with the golden at path, or rewrites it when
// update is set.
func checkSearchGolden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n%s", path, got)
	}
}

// appendStats appends a query's four counters to a digest buffer.
func appendStats(buf []byte, st QueryStats) []byte {
	for _, v := range []int{st.Candidates, st.PrunedByBound, st.Estimated, st.BufferAccepts} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}
