package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// The read path's responses are pinned to the bytes the handlers produced
// before the body scanner and the append-form engine calls replaced
// encoding/json and the allocating ones (testdata/read_golden.txt, written
// by this test under -update-read-golden at the commit before): one line a
// request — status, body length, SHA-256 of the body — and at the end the
// collection's query-cache counters. Equal bytes are why f1 and recall cannot
// have moved with that change; the counters move only with what the cache
// keys on (since it keeps answers, the spec as well as the query bytes).

var updateReadGolden = flag.Bool("update-read-golden", false, "rewrite testdata/read_golden.txt from this build's responses")

const readGoldenPath = "testdata/read_golden.txt"

// goldenRequest is one request of the sequence.
type goldenRequest struct{ path, body string }

// readGoldenRequests builds the sequence over a corpus: search, topk and
// batch bodies with and without with_tokens, limit 0 and 100, thresholds 0,
// 0.5 and 1, empty and all-unknown queries, repeated, permuted, re-spaced and
// escaped spellings of one query, an insert half-way through, and queries
// that are not arrays of strings.
func readGoldenRequests(t *testing.T, records [][]string) []goldenRequest {
	t.Helper()
	marshal := func(tokens []string) string {
		b, err := json.Marshal(tokens)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var queries []string
	for i := 0; i < 12; i++ {
		r := records[(i*331)%len(records)]
		queries = append(queries, marshal(r))                      // a whole record
		queries = append(queries, marshal(r[i:min(len(r), i+12)])) // a subset of one
	}
	sub := records[17][:10]
	reversed := make([]string, len(sub))
	for i, tok := range sub {
		reversed[len(sub)-1-i] = tok
	}
	queries = append(queries,
		marshal(sub),
		marshal(sub), // byte-identical: the exact-bytes key
		marshal(reversed),
		marshal(append(append([]string{}, sub...), sub[0], sub[3])), // duplicates: the same token set
		strings.ReplaceAll(marshal(sub), ",", " ,\n\t"),
		strings.Replace(marshal(sub), `"e`, `"\u0065`, 1), // an escaped spelling of the first token
		marshal(append([]string{"never-indexed", "nor-this"}, sub...)),
		`["never-indexed","nor-this","never-indexed"]`,
		`["é","\u00e9","tab\t","quote\"","😀","e17"]`,
		`["e17",null]`,
		`[]`,
		`null`,
	)
	var reqs []goldenRequest
	add := func(path, format string, args ...any) {
		reqs = append(reqs, goldenRequest{"/collections/c/" + path, fmt.Sprintf(format, args...)})
	}
	for i, q := range queries {
		for j, threshold := range []string{"0", "0.5", "1"} {
			limit, withTokens := 100*((i+j)%2), (i+j)%3 == 0
			add("search", `{"query":%s,"threshold":%s,"limit":%d,"with_tokens":%v}`, q, threshold, limit, withTokens)
		}
		add("search", `{"with_tokens":%v,"limit":%d,"threshold":0.5,"query":%s}`, i%2 == 0, 100*(i%2), q)
		add("topk", `{"query":%s,"k":%d,"with_tokens":%v}`, q, 1+9*(i%2), i%4 == 0)
		if i == len(queries)/2 {
			add("records", `{"records":[%s,["never-indexed","e17"]]}`, queries[0])
		}
	}
	// Key order, key case, nulls and numbers in other spellings.
	add("search", `{"threshold":5e-1,"QUERY":%s,"limit":null,"With_Tokens":null}`, queries[1])
	add("search", `{"limit":-0,"query":["x"],"query":%s,"threshold":0.50}`, queries[1])
	add("topk", `{"k":3,"k":null,"query":%s} trailing`, queries[3])
	// Requests refused after a clean parse.
	add("search", `{"query":%s,"threshold":1.5}`, queries[0])
	add("search", `{"query":%s,"threshold":-0.1}`, queries[0])
	add("topk", `{"query":%s,"k":0}`, queries[0])
	add("topk", `{"query":%s}`, queries[0])
	add("search:batch", `{"queries":[],"threshold":0.5}`)
	add("topk:batch", `{"k":2}`)
	for i := 0; i+4 <= len(queries); i += 3 {
		qs := strings.Join([]string{queries[i], queries[i+1], queries[i], queries[i+3]}, ",")
		add("search:batch", `{"queries":[%s],"threshold":0.5,"limit":%d,"with_tokens":%v}`, qs, 100*(i%2), i%2 == 0)
		add("topk:batch", `{"queries":[%s],"k":%d,"with_tokens":%v}`, qs, 1+i, i%2 == 1)
	}
	// A query that is JSON of another shape, or missing: refused when its
	// tokens are read, in json.Unmarshal's words.
	add("search", `{"query":5,"threshold":0.5}`)
	add("search", `{"query":[1],"threshold":0.5}`)
	add("search", `{"query":["e17",{"b":[true]},7],"threshold":0.5}`)
	add("search", `{"threshold":0.5}`)
	add("topk", `{"query":"e17","k":3}`)
	add("topk", `{"query":{"e17":null},"k":3}`)
	add("topk", `{"query":[false],"k":3}`)
	add("topk", `{"k":3}`)
	add("search:batch", `{"queries":[%s,7,["e17",-1.5],null,[],[["e17"]]],"threshold":0.5}`, queries[1])
	add("topk:batch", `{"queries":["e17",%s,true,{}],"k":2}`, queries[1])
	return reqs
}

func TestReadPathResponsesMatchGolden(t *testing.T) {
	records := benchCollectionRecords(t, 2000)
	// Non-ASCII and escaped tokens take the encoder's and the scanner's slow
	// paths.
	records = append(records, []string{"é", "tab\t", "quote\"", "😀", "e17"})
	reqs := readGoldenRequests(t, records)
	if len(reqs) < 200 {
		t.Fatalf("only %d requests in the sequence", len(reqs))
	}
	var got bytes.Buffer
	store, err := OpenStore("", StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(store)
	do := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	build := marshalBuildBody(t, records, `{"seed":7}`)
	if code, body := do("PUT", "/collections/c", string(build)); code != http.StatusOK {
		t.Fatalf("build: %d %s", code, body)
	}
	statuses := map[int]int{}
	for i, rq := range reqs {
		code, body := do("POST", rq.path, rq.body)
		statuses[code]++
		fmt.Fprintf(&got, "%d %s %d %d %x\n", i, strings.TrimPrefix(rq.path, "/collections/c/"), code, len(body), sha256.Sum256(body))
	}
	if statuses[http.StatusOK] < 180 || statuses[http.StatusBadRequest] < 10 {
		t.Fatalf("the sequence answers %v: it should mostly be served, with a few refusals", statuses)
	}
	code, body := do("GET", "/collections/c/stats", "")
	var st struct {
		QueryCache QueryCacheStats `json:"query_cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
		t.Fatalf("stats: %d %s (%v)", code, body, err)
	}
	fmt.Fprintf(&got, "query_cache %+v\n", st.QueryCache)
	if *updateReadGolden {
		if err := os.WriteFile(readGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(readGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			var n int
			fmt.Sscanf(gotLines[i], "%d", &n)
			t.Errorf("line %d:\n got  %s\n want %s\n request body %.200s", i+1, gotLines[i], wantLines[i], reqs[n%len(reqs)].body)
		}
	}
}
