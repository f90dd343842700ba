package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// The reference the query scanner is held to: the four query handlers as
// they were before it — json.Decoder with DisallowUnknownFields into these
// structs under http.MaxBytesReader, the handlers' checks, then json.Unmarshal
// of each query into a []string and the cache keys built from those strings.
type refSearchRequest struct {
	Query      json.RawMessage `json:"query"`
	Threshold  float64         `json:"threshold"`
	Limit      int             `json:"limit"`
	WithTokens bool            `json:"with_tokens"`
}

type refTopKRequest struct {
	Query      json.RawMessage `json:"query"`
	K          int             `json:"k"`
	WithTokens bool            `json:"with_tokens"`
}

type refBatchSearchRequest struct {
	Queries    []json.RawMessage `json:"queries"`
	Threshold  float64           `json:"threshold"`
	Limit      int               `json:"limit"`
	WithTokens bool              `json:"with_tokens"`
}

type refBatchTopKRequest struct {
	Queries    []json.RawMessage `json:"queries"`
	K          int               `json:"k"`
	WithTokens bool              `json:"with_tokens"`
}

// refTokenSet is the query's token set — what decides its sketch — built
// from strings: distinct tokens, sorted.
func refTokenSet(tokens []string) []string {
	toks := slices.Clone(tokens)
	slices.Sort(toks)
	return slices.Compact(toks)
}

// queryRead is what the read path makes of one query of a request: refused
// (what is not an array of strings, and an empty one), or its bytes as they
// stood in the body (its cache key), its tokens in order and its token set.
type queryRead struct {
	refused bool
	tokens  []string
	raw     string
	set     []string
}

// queryOutcome is how far a request gets before anything is searched: the
// status it is refused with, or 200 with what was read.
type queryOutcome struct {
	status  int
	spec    querySpec
	queries []queryRead
}

func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// refOutcome is the reference's outcome on one body under a size bound.
func refOutcome(body []byte, batch, topk bool, limit int64) queryOutcome {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	var raws []json.RawMessage
	var sp querySpec
	var err error
	switch {
	case !batch && !topk:
		var req refSearchRequest
		err = dec.Decode(&req)
		raws, sp = []json.RawMessage{req.Query}, querySpec{threshold: req.Threshold, limit: req.Limit, withTokens: req.WithTokens}
	case !batch && topk:
		var req refTopKRequest
		err = dec.Decode(&req)
		raws, sp = []json.RawMessage{req.Query}, querySpec{topk: true, k: req.K, withTokens: req.WithTokens}
	case batch && !topk:
		var req refBatchSearchRequest
		err = dec.Decode(&req)
		raws, sp = req.Queries, querySpec{threshold: req.Threshold, limit: req.Limit, withTokens: req.WithTokens}
	default:
		var req refBatchTopKRequest
		err = dec.Decode(&req)
		raws, sp = req.Queries, querySpec{topk: true, k: req.K, withTokens: req.WithTokens}
	}
	if err != nil {
		return queryOutcome{status: bodyStatus(err)}
	}
	if batch && (len(raws) == 0 || len(raws) > maxBatchQueries) ||
		topk && sp.k <= 0 || !topk && (sp.threshold < 0 || sp.threshold > 1) {
		return queryOutcome{status: http.StatusBadRequest}
	}
	out := queryOutcome{status: http.StatusOK, spec: sp}
	for _, raw := range raws {
		var tokens []string
		if json.Unmarshal(raw, &tokens) != nil || len(tokens) == 0 {
			out.queries = append(out.queries, queryRead{refused: true})
			continue
		}
		out.queries = append(out.queries, queryRead{
			tokens: tokens,
			raw:    string(raw),
			set:    refTokenSet(tokens),
		})
	}
	if !batch && out.queries[0].refused {
		return queryOutcome{status: http.StatusBadRequest}
	}
	return out
}

// scanOutcome is the outcome of the request path's own steps: readQuery,
// invalid, and per query what preparedRaw does ahead of the cache.
func scanOutcome(body []byte, batch, topk bool, limit int64, wrap func(io.Reader) io.Reader) queryOutcome {
	sc := getScanner(wrap(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)))
	defer putScanner(sc)
	req, err := sc.readQuery(batch, topk)
	if err != nil {
		return queryOutcome{status: bodyStatus(err)}
	}
	if req.invalid(batch) != nil {
		return queryOutcome{status: http.StatusBadRequest}
	}
	out := queryOutcome{status: http.StatusOK, spec: req.querySpec}
	raws := req.queries
	if !batch {
		raws = [][]byte{req.query}
	}
	var qk queryTokens
	for _, raw := range raws {
		if qk.readTokens(raw) != nil || len(qk.spans) == 0 {
			out.queries = append(out.queries, queryRead{refused: true})
			continue
		}
		read := queryRead{raw: string(raw)}
		for _, s := range qk.spans {
			read.tokens = append(read.tokens, string(qk.slab[s.lo:s.hi]))
		}
		if _, err := qk.tokenize(raw); err != nil {
			panic(err) // readTokens took it
		}
		for _, s := range qk.spans {
			read.set = append(read.set, string(qk.slab[s.lo:s.hi]))
		}
		out.queries = append(out.queries, read)
	}
	if !batch && out.queries[0].refused {
		return queryOutcome{status: http.StatusBadRequest}
	}
	return out
}

// checkQueryBody holds the scanner to the reference on one body, read as each
// of the four requests.
func checkQueryBody(t testing.TB, body []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	for form := 0; form < 4; form++ {
		checkQueryForm(t, body, form&1 != 0, form&2 != 0, unbounded, wrap)
	}
}

const unbounded = 1 << 30

// checkQueryForm holds the scanner to the reference on one body read as one
// of the four requests, under a size bound: the same status and, when that
// is 200, equal fields, equal token sequences, equal token sets and
// byte-equal query bytes (the cache key).
func checkQueryForm(t testing.TB, body []byte, batch, topk bool, limit int64, wrap func(io.Reader) io.Reader) {
	t.Helper()
	want := refOutcome(body, batch, topk, limit)
	got := scanOutcome(body, batch, topk, limit, wrap)
	if got.status != want.status {
		t.Fatalf("body %.300q (batch %v, topk %v, bound %d): scanner answers %d, reference %d", body, batch, topk, limit, got.status, want.status)
	}
	if got.spec != want.spec || len(got.queries) != len(want.queries) {
		t.Fatalf("body %.300q (batch %v, topk %v): scanner reads %+v and %d queries, reference %+v and %d",
			body, batch, topk, got.spec, len(got.queries), want.spec, len(want.queries))
	}
	for i, w := range want.queries {
		g := got.queries[i]
		if g.refused != w.refused || !slices.Equal(g.tokens, w.tokens) || g.raw != w.raw || !slices.Equal(g.set, w.set) {
			t.Fatalf("body %.300q (batch %v, topk %v), query %d:\n scanner   %.300q\n reference %.300q", body, batch, topk, i, fmt.Sprint(g), fmt.Sprint(w))
		}
	}
}

// queryBodyTable is the differential table of the query endpoints: what a
// client can plausibly get wrong, and every place the scanner could read a
// body differently from encoding/json.
func queryBodyTable() [][]byte {
	long := strings.Repeat("x", scanWindow+scanWindow/2)
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	var numbers []string
	for _, n := range []string{
		"0", "-0", "1", "0.5", "0.50", "5e-1", "5E-1", "0.05e+1", "1.0", "1e0", "1e2", "1.5", "10", "-1", "-0.0", "0e0",
		"00", "01", "+1", ".5", "1.", "1.e1", "1e", "1e+", "-", "--1", "0x1", "1_0", "Infinity", "NaN", "1e999", "-1e999", "1e-999",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809", "99999999999999999999999",
		`"1"`, "true", "null", "[1]", "{}", "1 2",
	} {
		numbers = append(numbers,
			`{"query":["a"],"threshold":`+n+`,"limit":3}`,
			`{"query":["a"],"threshold":0.5,"limit":`+n+`}`,
			`{"query":["a"],"k":`+n+`}`,
			`{"queries":[["a"]],"k":`+n+`,"threshold":`+n+`}`,
		)
	}
	bodies := append(numbers,
		// Plain shapes.
		`{"query":["a","b"],"threshold":0.5}`,
		`{"query":["a","b"],"threshold":0.5,"limit":10,"with_tokens":true}`,
		`{"query":["a","b"],"k":5,"with_tokens":false}`,
		` { "query" : [ "a" , "b" ] , "threshold" : 0.25 , "k" : 2 } `,
		"{\n\t\"query\":\r\n[\"a\",\n\"b\"]\n,\"k\":1,\"threshold\":1}",
		`{"queries":[["a","b"],["b"],["a","b"]],"threshold":0.5,"k":3}`,
		`{"queries":[ ["a" ,"b"] , [ ] ,null, ["c"]],"threshold":0,"limit":1,"k":1,"with_tokens":true}`,
		`{"query":["b","a","b"],"threshold":0.5,"k":1}`,
		`{"query":["a"]}`,
		`{"queries":[["a"]]}`,
		`{"threshold":0.5,"k":1}`,
		`{}`,
		// Escapes and encodings, in tokens.
		`{"query":["\u00e9","é","e\u0301"],"k":1}`,
		`{"query":["\ud83d\ude00","😀"],"k":1}`,
		`{"query":["\ud83d","\ude00","\ud83dx","\ud83d\u0041","\ude00\ud83d"],"k":1}`,
		`{"query":["\ud83d\ud83d\ude00"],"k":1}`,
		`{"query":["\/","/","\\","\"","\b\f\n\r\t"],"k":1}`,
		`{"query":["\uD83D\uDE00","\u00E9","\u00e9"],"k":1}`,
		"{\"query\":[\"\xff\",\"a\xc3\",\"\xe2\x82\",\"\xef\xbf\xbd\",\"\xc0\xaf\"],\"k\":1}",
		"{\"queries\":[[\"\xff\"],[\"\xef\xbf\xbd\"],[\"\\ufffd\"]],\"k\":1}",
		"{\"query\":[\"tab\there\"],\"k\":1}",
		"{\"query\":[\"nul\x00\"],\"k\":1}",
		"{\"query\":[\"del\x7f\"],\"k\":1}",
		"{\"queries\":[[\"a\"],[\"tab\there\"]],\"k\":1}",
		`{"query":["\x41"],"k":1}`,
		`{"query":["\u12"],"k":1}`,
		`{"query":["\u12G4"],"k":1}`,
		`{"query":["\ud83d\uZZZZ"],"k":1}`,
		`{"query":["a\"],"k":1}`,
		`{"query":["a\\"],"k":1}`,
		`{"query":["","a",""],"k":1}`,
		`{"query":[""],"k":1}`,
		`{"query":["a",null,"b"],"k":1}`,
		`{"query":[null],"k":1}`,
		`{"queries":[["\u0061"],["a"],[ "a"]],"k":1}`,
		// Keys: folding, escapes, duplicates, unknowns.
		`{"QUERY":["a"],"Threshold":0.5,"LIMIT":2,"With_Tokens":true,"K":4}`,
		`{"\u0071uery":["a"],"\u006b":1}`,
		"{\"querie\u017f\":[[\"a\"]],\"k\":1}",
		"{\"with_token\u017f\":true,\"query\":[\"a\"],\"\u212a\":1}",
		`{"with-tokens":true,"query":["a"],"k":1}`,
		`{"withtokens":true,"query":["a"],"k":1}`,
		`{"query":["a"],"query":["b","a"],"k":1}`,
		`{"query":["a"],"query":null,"k":1}`,
		`{"query":null,"query":["a"],"k":1}`,
		`{"query":["a"],"query":7,"k":1}`,
		`{"queries":[["a"],["b"]],"queries":[["c"]],"k":1}`,
		`{"queries":[["a"]],"queries":[["c"],["d"],null],"k":1}`,
		`{"queries":[["a"]],"queries":null,"k":1}`,
		`{"queries":[["a"]],"queries":[],"k":1}`,
		`{"k":1,"k":2,"threshold":0.1,"threshold":0.2,"limit":1,"limit":2,"with_tokens":true,"with_tokens":false,"query":["a"]}`,
		`{"k":1,"k":null,"threshold":0.1,"threshold":null,"limit":1,"limit":null,"with_tokens":true,"with_tokens":null,"query":["a"]}`,
		`{"k":null,"threshold":null,"limit":null,"with_tokens":null,"query":["a"]}`,
		`{"query":["a"],"k":1,"extra":1}`,
		`{"query":["a"],"k":1,"":1}`,
		`{"query":["a"],"queries":[["a"]],"k":1}`,
		`{"query":["a"],"k":1,"threshold":0.5,"limit":1}`,
		// Wrong types: the query, its tokens, the batch, the flags.
		`{"query":"a","k":1}`,
		`{"query":7,"k":1}`,
		`{"query":true,"k":1}`,
		`{"query":{"a":["b"]},"k":1}`,
		`{"query":["a",5],"k":1}`,
		`{"query":["a",{}],"k":1}`,
		`{"query":["a",["b"]],"k":1}`,
		`{"query":["a",true],"k":1}`,
		`{"query":[[]],"k":1}`,
		`{"queries":["a",7,true,null,{"x":[1,2,{"y":"}"}]},[["a"]],["a"]],"k":1}`,
		`{"queries":"a","k":1}`,
		`{"queries":{},"k":1}`,
		`{"queries":7,"k":1}`,
		`{"queries":[["a"]],"k":1,"with_tokens":1}`,
		`{"query":["a"],"k":1,"with_tokens":"true"}`,
		`{"query":["a"],"k":1,"with_tokens":tru}`,
		`{"query":["a"],"k":1,"with_tokens":truex}`,
		`{"query":["a"],"k":1,"with_tokens":falsey}`,
		`{"query":["a"],"k":1,"with_tokens":nul}`,
		`{"query":["a"],"k":1,"with_tokens":[]}`,
		// Invalid JSON inside a kept value.
		`{"query":["a",tru],"k":1}`,
		`{"query":["a",01],"k":1}`,
		`{"query":["a",1.],"k":1}`,
		`{"query":["a",-],"k":1}`,
		`{"query":["a",1e],"k":1}`,
		`{"query":{"a" 1},"k":1}`,
		`{"query":{"a":1,},"k":1}`,
		`{"query":{a:1},"k":1}`,
		`{"query":{"a":1],"k":1}`,
		`{"query":[1}],"k":1}`,
		`{"query":[tru]e],"k":1}`,
		`{"queries":[{"a":tru},["x"]],"k":1}`,
		`{"queries":[["x"],{"a":"\u12"}],"k":1}`,
		`{"queries":[["x"],"ctl`+"\x01"+`"],"k":1}`,
		`{"queries":[["x"],nullx],"k":1}`,
		`{"queries":[["x"],-0.5e+3,-0.5e+,1E9],"k":1}`,
		`{"queries":[["x"] ["y"]],"k":1}`,
		`{"queries":[["x"],],"k":1}`,
		`{"queries":[,["x"]],"k":1}`,
		// Nesting at encoding/json's bound, and past it.
		`{"query":`+deep(9999)+`,"k":1}`,
		`{"query":`+deep(10000)+`,"k":1}`,
		`{"queries":[`+deep(9998)+`],"k":1}`,
		`{"queries":[`+deep(9999)+`],"k":1}`,
		// Separators, and empty or foreign bodies.
		`{"query":["a"],"k":1,}`,
		`{"query":["a",],"k":1}`,
		`{"query":[,"a"],"k":1}`,
		`{"query":["a" "b"],"k":1}`,
		`{"query" ["a"],"k":1}`,
		`{"query":["a"],"k":1`,
		`{"query":["a"] "k":1}`,
		`{query:["a"],"k":1}`,
		`{"query":['a'],"k":1}`,
		`null`,
		`nullx`,
		``,
		` `,
		`[]`,
		`"query"`,
		`7`,
		// Bytes after the value.
		`{"query":["a"],"k":1} trailing`,
		`{"query":["a"],"k":1}{"query":["b"],"k":2}`,
		`{"query":["a"],"k":1}]`,
		`{"query":["a"],"k":1}`+"\x00\xff",
		// A token, a query, a key and a gap longer than the window.
		`{"query":["a","`+long+`","b"],"k":1}`,
		`{"query":["\u00e9`+long+`\n"],"k":1}`,
		`{"queries":[["a"],["`+long+`"],["a","`+long+`"]],"k":1}`,
		`{"query":["`+strings.Repeat(`tok","`, scanWindow/4)+`end"],"k":1}`,
		`{"`+long+`":1}`,
		`{"query":["a"]`+strings.Repeat(" ", 2*scanWindow)+`,"k":1}`,
		`{"query":[`+strings.Repeat(" ", 2*scanWindow)+`"a"],"k":1}`,
		`{"query":["a"],"k":`+strings.Repeat("0", 100)+`}`,
		`{"query":["a"],"k":1`+strings.Repeat("0", scanWindow)+`}`,
		`{"query":["a"],"threshold":0.`+strings.Repeat("0", scanWindow)+`1}`,
	)
	out := make([][]byte, 0, len(bodies)+128)
	for _, b := range bodies {
		out = append(out, []byte(b))
	}
	// Truncation at every prefix length of a short body of each shape, with
	// an escape, a multi-byte character, a null and every kind of value in it.
	for _, short := range []string{
		`{"query":["a\u00e9","é\n",null],"threshold":2.5e-1,"limit":-10,"k":7,"with_tokens":true}`,
		`{"queries":[["a"],null,{"b":[false,1.5,"\\"]}],"with_tokens":false,"k":1}`,
	} {
		for n := 0; n < len(short); n++ {
			out = append(out, []byte(short[:n]))
		}
	}
	return out
}

// TestQueryScannerMatchesEncodingJSON runs the table through the scanner and
// the reference; again with readers that hand the scanner one byte, and
// alternately half of what it asked for, per Read — what it makes of a body
// may not depend on where its window happens to end; and, for the bodies that
// are served, under size bounds that cut them short.
func TestQueryScannerMatchesEncodingJSON(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-with-eof", iotest.DataErrReader},
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			for _, body := range queryBodyTable() {
				checkQueryBody(t, body, rd.wrap)
			}
		})
	}
	// An unknown field or a wrong type ahead of the bound is the documented
	// departure (ingest.go), so only requests without either are cut short.
	t.Run("bounded", func(t *testing.T) {
		cut := 0
		for _, body := range queryBodyTable() {
			for form := 0; form < 4 && len(body) < 4096; form++ {
				batch, topk := form&1 != 0, form&2 != 0
				if refOutcome(body, batch, topk, unbounded).status != http.StatusOK {
					continue
				}
				cut++
				for _, limit := range []int64{int64(len(body)), int64(len(body)) - 1, int64(len(body)) / 2, 1, 0} {
					checkQueryForm(t, body, batch, topk, limit, readers[0].wrap)
					checkQueryForm(t, body, batch, topk, limit, iotest.HalfReader)
				}
			}
		}
		if cut < 50 {
			t.Fatalf("only %d requests of the table are served", cut)
		}
	})
}

// FuzzSearchBody asserts the same equivalence, and no panic, on arbitrary
// bodies, delivered whole, in halves and byte by byte.
func FuzzSearchBody(f *testing.F) {
	for _, body := range queryBodyTable() {
		if len(body) < 1024 {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkQueryBody(t, body, func(r io.Reader) io.Reader { return r })
		checkQueryBody(t, body, iotest.HalfReader)
		checkQueryBody(t, body, iotest.OneByteReader)
	})
}

// TestQueryTokensRefuseWhatUnmarshalRefuses: SearchRaw and TopKRaw take a
// query from any caller, not only from the scanner, so readTokens is held to
// json.Unmarshal into a []string on its own too, on input no scanner vetted.
func TestQueryTokensRefuseWhatUnmarshalRefuses(t *testing.T) {
	var qk queryTokens
	for _, raw := range []string{
		``, ` `, `[`, `]`, `["a"`, `["a",`, `["a"]]`, `["a"] x`, ` ["a"] `, "\n[\t\"a\" ,\r\"b\" ]\n", `["a" "b"]`, `[,]`, `["a",]`,
		`null`, ` null `, `nul`, `nullx`, `[null]`, `[nul]`, `[nullx]`, `[null,"a"]`, `"a"`, `{}`, `7`, `[7]`, `[true]`, `[["a"]]`,
		`true`, `false`, `-1.5e3`, `{"a":["b"]}`, ` "a"`, `[-0.5]`, `[false]`, `[{}]`, `["a",null,{"b":7},8]`, `[[],"a"]`, `["a",[7]]`,
		`["a\"]`, `["a\\"]`, `["a\`, `["\`, `["\u12"]`, `["\u00e9"]`, `["\ud83d"]`, `["\q"]`, "[\"a\nb\"]", "[\"\x00\"]", "[\"\xff\"]", `["a","a"]`,
	} {
		var want []string
		wantErr := json.Unmarshal([]byte(raw), &want)
		gotErr := qk.readTokens([]byte(raw))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("query %q: readTokens error %v, json.Unmarshal error %v", raw, gotErr, wantErr)
			continue
		}
		// What a request can carry — JSON of another shape, the scanner having
		// held it to the grammar, or no query — is refused in the words it was
		// before: the response bytes did not change.
		if missing := strings.TrimSpace(raw) == ""; wantErr != nil && (missing || json.Valid([]byte(raw))) {
			if want := "query must be a JSON array of strings: " + wantErr.Error(); gotErr.Error() != want {
				t.Errorf("query %q: readTokens says %q, want %q", raw, gotErr, want)
			}
		}
		var got []string
		for _, s := range qk.spans {
			got = append(got, string(qk.slab[s.lo:s.hi]))
		}
		if wantErr == nil && !slices.Equal(got, want) {
			t.Errorf("query %q: tokens %q, json.Unmarshal %q", raw, got, want)
		}
	}
}

// TestQueryEndpointsTooLarge: the size bound answers 413 on all four query
// endpoints, as TestBodyTooLarge has it for build, insert and search.
func TestQueryEndpointsTooLarge(t *testing.T) {
	store, err := OpenStore("", StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4 << 10
	h := newHandler(store, limit)
	do := func(method, path, body string) int {
		return serveStatus(h, method, path, body)
	}
	if code := do("PUT", "/collections/rest", restaurants); code != http.StatusOK {
		t.Fatalf("build: %d", code)
	}
	big := `["` + strings.Repeat(`tok","`, limit) + `end"]`
	for path, body := range map[string]string{
		"search":       `{"query":` + big + `,"threshold":0.5}`,
		"topk":         `{"k":1,"query":` + big + `}`,
		"search:batch": `{"threshold":0.5,"queries":[["a"],` + big + `]}`,
		"topk:batch":   `{"queries":[` + big + `],"k":1}`,
	} {
		if code := do("POST", "/collections/rest/"+path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d, want 413", path, len(body), code)
		}
		small := strings.Replace(body, big, `["burgers"]`, 1)
		if code := do("POST", "/collections/rest/"+path, small); code != http.StatusOK {
			t.Errorf("%s with body %s: %d, want 200", path, small, code)
		}
	}
}

func serveStatus(h http.Handler, method, path, body string) int {
	rw := &benchRW{h: make(http.Header)}
	req, err := http.NewRequest(method, path, strings.NewReader(body))
	if err != nil {
		panic(fmt.Sprint(err))
	}
	h.ServeHTTP(rw, req)
	return rw.code
}
