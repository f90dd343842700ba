package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"gbkmv"
	"gbkmv/internal/dataset"
	"gbkmv/internal/snapfmt"
)

// The reference the scanner is held to: the bulk handlers as they were
// before it — json.Decoder with DisallowUnknownFields into these structs,
// then Vocabulary.Record per record.
type refBuildRequest struct {
	Records [][]string   `json:"records"`
	File    string       `json:"file"`
	Options buildOptions `json:"options"`
}

type refInsertRequest struct {
	Records   [][]string `json:"records"`
	RequestID string     `json:"request_id"`
}

func refDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// refRecords interns token arrays the way the old build handler did. empty
// is the index of the first record without tokens, or -1.
func refRecords(tokens [][]string) (voc *gbkmv.Vocabulary, records []gbkmv.Record, empty int) {
	voc, empty = gbkmv.NewVocabulary(), -1
	for i, toks := range tokens {
		records = append(records, voc.Record(toks))
		if len(toks) == 0 && empty < 0 {
			empty = i
		}
	}
	return voc, records, empty
}

func vocabTokens(voc *gbkmv.Vocabulary) []string {
	out := make([]string, voc.Len())
	for i := range out {
		out[i] = voc.Token(gbkmv.Element(i))
	}
	return out
}

// staleNullQuirk reports bodies on which encoding/json itself is not a
// usable reference: decoding a repeated "records" key reuses the previous
// slice, and a null token then keeps whatever string the slot held. The
// scanner reads every occurrence afresh (ingest.go). The walk uses
// encoding/json's own tokenizer, so keys fold and unescape as they do there.
func staleNullQuirk(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := 0
	for dec.More() {
		tok, err := dec.Token()
		key, ok := tok.(string)
		if err != nil || !ok {
			return false
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return false
		}
		if !strings.EqualFold(key, "records") {
			continue
		}
		if seen++; seen == 1 {
			continue
		}
		var records [][]*string
		if json.Unmarshal(value, &records) != nil {
			continue
		}
		for _, tokens := range records {
			for _, tok := range tokens {
				if tok == nil {
					return true
				}
			}
		}
	}
	return false
}

// checkBuildBody holds readBuild to the reference on one body: both reject
// it, or records, vocabulary order, file and options are equal. wrap shapes
// how the scanner's reader delivers the bytes.
func checkBuildBody(t testing.TB, body []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	var ref refBuildRequest
	refErr := refDecode(bytes.NewReader(body), &ref)
	refVoc, refRecs, refEmpty := refRecords(ref.Records)
	refOK := refErr == nil && (len(ref.Records) == 0) != (ref.File == "") && (ref.File != "" || refEmpty < 0)

	sc := getScanner(wrap(bytes.NewReader(body)))
	got, err := sc.readBuild()
	putScanner(sc)
	gotOK := err == nil && (got.corpus.Len() == 0) != (got.File == "") && (got.File != "" || got.firstEmpty < 0)

	if staleNullQuirk(body) {
		return
	}
	if refOK != gotOK {
		t.Fatalf("body %q: reference accepts = %v (err %v), scanner accepts = %v (err %v)", body, refOK, refErr, gotOK, err)
	}
	if !refOK {
		return
	}
	if got.File != ref.File || got.Options != ref.Options {
		t.Fatalf("body %q: file/options = %q %+v, reference %q %+v", body, got.File, got.Options, ref.File, ref.Options)
	}
	if ref.File != "" {
		return
	}
	if !reflect.DeepEqual(vocabTokens(got.voc), vocabTokens(refVoc)) {
		t.Fatalf("body %q: vocabulary %q, reference %q", body, vocabTokens(got.voc), vocabTokens(refVoc))
	}
	if got.corpus.Len() != len(refRecs) {
		t.Fatalf("body %q: %d records, reference %d", body, got.corpus.Len(), len(refRecs))
	}
	for i := range refRecs {
		if rec := got.corpus.Record(i); !slices.Equal(rec, refRecs[i]) {
			t.Fatalf("body %q: record %d = %v, reference %v", body, i, rec, refRecs[i])
		}
	}
}

// checkInsertBody is checkBuildBody for readInsert: equal token arrays and
// request id, or both reject.
func checkInsertBody(t testing.TB, body []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	var ref refInsertRequest
	refErr := refDecode(bytes.NewReader(body), &ref)
	sc := getScanner(wrap(bytes.NewReader(body)))
	rid, err := sc.readInsert()
	var batch [][]string
	for i := range sc.recEnds {
		batch = append(batch, tokensOfRecord(&sc.tokenBatch, i))
	}
	putScanner(sc)
	if staleNullQuirk(body) {
		return
	}
	if (refErr == nil) != (err == nil) {
		t.Fatalf("body %q: reference error %v, scanner error %v", body, refErr, err)
	}
	if refErr != nil {
		return
	}
	if rid != ref.RequestID || len(batch) != len(ref.Records) {
		t.Fatalf("body %q: request id %q, %d records; reference %q, %d", body, rid, len(batch), ref.RequestID, len(ref.Records))
	}
	for i, want := range ref.Records {
		if len(batch[i]) != len(want) {
			t.Fatalf("body %q: record %d = %q, reference %q", body, i, batch[i], want)
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("body %q: record %d = %q, reference %q", body, i, batch[i], want)
			}
		}
	}
}

// bodyTable is the differential table: what a client can plausibly get
// wrong, and every place the scanner could read a body differently from
// encoding/json.
func bodyTable() [][]byte {
	long := strings.Repeat("x", scanWindow+scanWindow/2)
	bodies := []string{
		// Plain shapes.
		`{"records":[["a","b"],["b","c","a"]]}`,
		` { "records" : [ [ "a" , "b" ] , [ "c" ] ] , "options" : { "seed" : 7 } } `,
		"{\n\t\"records\":\r\n[[\"a\"]]}",
		`{"options":{"engine":"kmv","budget_units":5,"buffer_bits":-1,"num_hashes":2},"records":[["a"]]}`,
		`{"file":"records.txt","options":{"budget_fraction":0.5}}`,
		`{"records":[["dup","dup","a","dup"]]}`,
		`{"records":[["a"]],"request_id":"r-1"}`,
		`{"request_id":"r\u002d2","records":[["a","b"]]}`,
		// Escapes and encodings.
		`{"records":[["\u00e9","é","e\u0301"]]}`,
		`{"records":[["\ud83d\ude00","😀"]]}`,
		`{"records":[["\ud83d","\ude00","\ud83dx","\ud83d\u0041","\ude00\ud83d"]]}`,
		`{"records":[["\ud83d\ud83d\ude00"]]}`,
		`{"records":[["\/","/","\\","\"","\b\f\n\r\t"]]}`,
		`{"records":[["\uD83D\uDE00","\u00E9","\u00e9"]]}`,
		"{\"records\":[[\"\xff\",\"a\xc3\",\"\xe2\x82\",\"\xef\xbf\xbd\",\"\xc0\xaf\"]]}",
		"{\"records\":[[\"tab\there\"]]}",
		"{\"records\":[[\"nul\x00\"]]}",
		"{\"records\":[[\"del\x7f\"]]}",
		`{"records":[["\x41"]]}`,
		`{"records":[["\u12"]]}`,
		`{"records":[["\u12G4"]]}`,
		`{"records":[["\ud83d\uZZZZ"]]}`,
		`{"records":[["a\"]]}`,
		`{"records":[["a\\"]]}`,
		`{"records":[["","a",""]]}`,
		// Keys: folding, escapes, duplicates, unknowns.
		`{"Records":[["a"]],"OPTIONS":{"Seed":3},"FILE":null}`,
		`{"\u0072ecords":[["a"]]}`,
		"{\"record\u017f\":[[\"a\"]]}",
		"{\"option\u017f\":{\"\u017feed\":9},\"records\":[[\"a\"]]}",
		`{"records":[["a"]],"records":[["b","a"]]}`,
		`{"records":[["a"],[]],"records":[["b"]]}`,
		`{"records":[["a"]],"records":[]}`,
		`{"records":[["a"]],"records":null}`,
		`{"records":[["a"]],"records":null,"file":"f"}`,
		`{"records":[["x","y"]],"records":[["a",null]]}`,
		`{"options":{"seed":1},"options":{"budget_units":5},"records":[["a"]]}`,
		`{"options":{"seed":1},"options":null,"records":[["a"]]}`,
		`{"file":"a","file":null}`,
		`{"file":"a","file":"b"}`,
		`{"records":null}`,
		`{"records":null,"file":"f"}`,
		`{"record":[["a"]]}`,
		`{"records":[["a"]],"extra":1}`,
		`{"records":[["a"]],"options":{"bogus":1}}`,
		`{"records":[["a"]],"options":{"seed":"x"}}`,
		`{"records":[["a"]],"options":{"seed":-1}}`,
		`{"records":[["a"]],"options":{"engine":null}}`,
		`{"records":[["a"]],"options":{"seed":1,"nested":{"a":["}"]}}}`,
		`{"records":[["a"]],"options":{"engine":"}\"{"}}`,
		`{"records":[["a"]],"options":[]}`,
		`{"records":[["a"]],"options":7}`,
		`{"records":[["a"]],"options":nullx}`,
		`{"records":[["a"]],"options":{"seed":1]}`,
		`{"records":[["a"]],"options":{"seed":1,}}`,
		`{"records":[["a"]],"file":7}`,
		`{"records":[["a"]],"file":nullx}`,
		`{"records":[["a"]],"file":"a"x}`,
		`{"records":[["a"]],"request_id":5}`,
		`{"records":[["a"]],"request_id":null}`,
		// Wrong types where tokens and records go.
		`{"records":[["a",5]]}`,
		`{"records":[["a",{}]]}`,
		`{"records":[["a",["b"]]]}`,
		`{"records":[["a",true]]}`,
		`{"records":[["a",null,"b"]]}`,
		`{"records":[null,["a"]]}`,
		`{"records":[["a"],null]}`,
		`{"records":["a"]}`,
		`{"records":[{"a":1}]}`,
		`{"records":"a"}`,
		`{"records":{}}`,
		`{"records":7}`,
		// Empty records, empty batches, empty bodies.
		`{"records":[["a"],[]]}`,
		`{"records":[[],["a"]]}`,
		`{"records":[[]]}`,
		`{"records":[]}`,
		`{"records":[],"file":"f"}`,
		`{}`,
		`null`,
		`nullx`,
		``,
		` `,
		`[]`,
		`"records"`,
		`7`,
		// Separators.
		`{"records":[["a"],]}`,
		`{"records":[["a",]]}`,
		`{"records":[,["a"]]}`,
		`{"records":[["a"]["b"]]}`,
		`{"records":[["a" "b"]]}`,
		`{"records":[["a"]],}`,
		`{"records" [["a"]]}`,
		`{"records":[["a"]]`,
		`{records:[["a"]]}`,
		`{"records":[['a']]}`,
		// Bytes after the value.
		`{"records":[["a"]]} trailing`,
		`{"records":[["a"]]}{"records":[["b"]]}`,
		`{"records":[["a"]]}]`,
		`{"file":"f"}` + "\x00\xff",
		// A token, a key and an options value longer than the window.
		`{"records":[["a","` + long + `","b"],["` + long + `"]]}`,
		`{"records":[["\u00e9` + long + `\n"]]}`,
		`{"` + long + `":1}`,
		`{"records":[["a"]],"options":{"engine":"` + long + `"}}`,
		`{"records":[["a"]]` + strings.Repeat(" ", 2*scanWindow) + `,"options":{"seed":2}}`,
	}
	out := make([][]byte, 0, len(bodies)+64)
	for _, b := range bodies {
		out = append(out, []byte(b))
	}
	// Truncation at every prefix length of a short body with an escape, a
	// multi-byte character, a null and both small values in it.
	short := `{"records":[["a\u00e9","é\n"],null],"file":"f","options":{"seed":1}}`
	for n := 0; n < len(short); n++ {
		out = append(out, []byte(short[:n]))
	}
	return out
}

// TestScannerMatchesEncodingJSON runs the table through the scanner and the
// reference, then again with readers that hand the scanner one byte, and
// alternately half of what it asked for, per Read: what the scanner makes
// of a body may not depend on where its window happens to end.
func TestScannerMatchesEncodingJSON(t *testing.T) {
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
			for _, body := range bodyTable() {
				checkBuildBody(t, body, rd.wrap)
				checkInsertBody(t, body, rd.wrap)
			}
		})
	}
}

// FuzzBuildBody asserts the same equivalence, and no panic, on arbitrary
// bodies, delivered whole and in halves.
func FuzzBuildBody(f *testing.F) {
	for _, body := range bodyTable() {
		if len(body) < 1024 {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBuildBody(t, body, func(r io.Reader) io.Reader { return r })
		checkBuildBody(t, body, iotest.HalfReader)
		checkInsertBody(t, body, iotest.OneByteReader)
	})
}

// TestBodyTooLarge: a body that runs into the size bound is a 413 on the
// scanned endpoints and the decoded ones alike, not a 400.
func TestBodyTooLarge(t *testing.T) {
	store, err := NewStore("", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4 << 10
	ts := httptest.NewServer(newHandler(store, limit))
	t.Cleanup(ts.Close)
	buildRestaurants(t, ts, "rest")
	big := `["` + strings.Repeat(`tok","`, limit) + `end"]`
	for _, c := range []struct{ method, path, body string }{
		{"PUT", "/collections/big", `{"records":[` + big + `]}`},
		{"POST", "/collections/rest/records", `{"records":[` + big + `]}`},
		{"POST", "/collections/rest/search", `{"query":` + big + `,"threshold":0.5}`},
	} {
		code, m := doJSON(t, ts, c.method, c.path, c.body)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: %d %v, want 413", c.method, c.path, len(c.body), code, m)
		}
	}
	// Under the bound the same requests are served.
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records":[["small"]]}`); code != http.StatusOK {
		t.Errorf("small insert: %d %v", code, m)
	}
}

// benchCollectionRecords returns the token records of the benchmark corpus.
// Record sizes follow the paper's set-valued serving workloads (domain and
// column search): sets of tens to hundreds of values.
func benchCollectionRecords(t testing.TB, n int) [][]string {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: n, Universe: 20000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 30, MaxSize: 200,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, n)
	for i, r := range d.Records {
		out[i] = make([]string, len(r))
		for j, e := range r {
			out[i][j] = fmt.Sprintf("e%d", e)
		}
	}
	return out
}

// marshalBuildBody marshals a build body for the benchmark corpus.
func marshalBuildBody(t testing.TB, records [][]string, options string) []byte {
	t.Helper()
	recs, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"records":` + string(recs) + `,"options":` + options + `}`)
}

// allocBytes is the heap allocated by one call of fn.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBulkIngestAllocs bounds what the bulk endpoints allocate. A build —
// body to served collection, through Handler, on a memory-only store —
// allocates 0.64x its body, and is held to a fifth more. The vocabulary is
// 0.5 MB of that: its slab, offsets and id table, each allocated once but the
// table, which doubles (1.0x while the vocabulary was a map and a []string,
// which allocated 3.4 MB; 2.5x while records were read into element arenas
// and packed afterwards; with reflection decoding the same build allocated
// 16.7x, and 22x when a 13.6 MB body arrived over a socket). An insert body
// of 4 records x 46 tokens scans without allocating.
func TestBulkIngestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-record collection")
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (instrumented allocs, lossy sync.Pool)")
	}
	records := benchCollectionRecords(t, 20000)
	body := marshalBuildBody(t, records, `{"seed":7}`)
	store, err := NewStore("", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(store)
	req := httptest.NewRequest("PUT", "/collections/big", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	got := allocBytes(func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		t.Fatalf("build: %d %s", rec.Code, rec.Body)
	}
	t.Logf("build: %d-byte body, %d bytes allocated (%.1fx)", len(body), got, float64(got)/float64(len(body)))
	if limit := uint64(1.2 * 0.64 * float64(len(body))); got > limit {
		t.Errorf("build allocated %d bytes for a %d-byte body, want under %d", got, len(body), limit)
	}

	var batch [][]string
	for _, r := range records {
		if len(batch) < 4 && len(r) >= 46 {
			batch = append(batch, r[:46])
		}
	}
	ins, err := json.Marshal(refInsertRequest{Records: batch})
	if err != nil {
		t.Fatal(err)
	}
	// An insert body of known tokens scans into the pooled scanner's spans and
	// allocates nothing (decoded into [][]string it was three allocations and a
	// copy of every token; through encoding/json, ten times the body).
	rd := bytes.NewReader(nil)
	scan := testing.AllocsPerRun(100, func() {
		rd.Reset(ins)
		sc := getScanner(rd)
		if _, err := sc.readInsert(); err != nil || len(sc.recEnds) != 4 || len(sc.tokEnds) != 4*46 {
			t.Fatalf("readInsert: %d records of %d tokens, %v", len(sc.recEnds), len(sc.tokEnds), err)
		}
		putScanner(sc)
	})
	const rounds = 100
	decode := allocBytes(func() {
		for i := 0; i < rounds; i++ {
			var ref refInsertRequest
			if err := refDecode(bytes.NewReader(ins), &ref); err != nil {
				t.Fatal(err)
			}
		}
	}) / rounds
	t.Logf("insert of 4x46 tokens (%d bytes): scanner %.1f allocations, decoder %d bytes", len(ins), scan, decode)
	if scan != 0 {
		t.Errorf("scanning a 4x46-token insert allocates %.1f objects beyond the pooled scanner, want none", scan)
	}
}

// liveBytes is the heap still in use after fn, over what was before it, while
// what fn returned is held.
func liveBytes(fn func() any) int64 {
	var before, after runtime.MemStats
	// A sync.Pool lets go of what it holds (the fixture's 16 MB
	// encoding/json buffer) over two collections.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	held := fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestBuildPeakLive pins what a build request holds when its body has been
// read — the live heap the build's sketch stage starts from, which decides the
// heap goal its last collection leaves behind, and with it the daemon's
// resident set: the vocabulary and under 2 bytes an element occurrence (the
// packed corpus with its headroom and offsets is 1.65; as []Element slices in
// arenas, a header each, the records measured 8.65). The vocabulary is held
// to its own bytes a token: 19.7 on the heap, its chunks' unfilled tails
// included, for 5.4 bytes of text a token (69 while it was a map and a
// []string), and 16.0 by its SizeBytes.
func TestBuildPeakLive(t *testing.T) {
	if testing.Short() {
		t.Skip("reads a 20 000-record body")
	}
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	records := benchCollectionRecords(t, 20000)
	body := marshalBuildBody(t, records, `{"seed":7}`)
	read := func() any {
		sc := getScanner(bytes.NewReader(body))
		got, err := sc.readBuild()
		putScanner(sc)
		if err != nil || got.corpus.Len() != len(records) {
			t.Fatalf("readBuild: %d records, %v", got.corpus.Len(), err)
		}
		return got
	}
	read() // the pooled scanner's window is not the request's
	var voc *gbkmv.Vocabulary
	vocabulary := liveBytes(func() any {
		voc = gbkmv.NewVocabulary()
		for _, tokens := range records {
			for _, tok := range tokens {
				voc.ID(tok)
			}
		}
		return voc
	})
	perToken, sized := float64(vocabulary)/float64(voc.Len()), float64(voc.SizeBytes())/float64(voc.Len())
	t.Logf("the vocabulary of %d tokens holds %d bytes, %.1f a token (SizeBytes %.1f)", voc.Len(), vocabulary, perToken, sized)
	if limit := 1.2 * 19.7; perToken > limit {
		t.Errorf("the vocabulary holds %.1f bytes a token, want at most %.1f", perToken, limit)
	}
	if sized > 20 {
		t.Errorf("the vocabulary's SizeBytes is %.1f bytes a token, want at most 20", sized)
	}
	var elements int
	held := liveBytes(func() any {
		got := read().(buildBody)
		elements = got.corpus.Elements()
		return got
	})
	// The fixture has to outlive the measurement it is not part of.
	runtime.KeepAlive(records)
	runtime.KeepAlive(body)
	t.Logf("a read body of %d element occurrences holds %d bytes: the vocabulary's %d and %.2f an occurrence",
		elements, held, vocabulary, float64(held-vocabulary)/float64(elements))
	if limit := vocabulary + 2*int64(elements); held > limit {
		t.Errorf("a read body holds %d bytes, want under %d (the vocabulary's %d and 2 an element occurrence of %d)",
			held, limit, vocabulary, elements)
	}
}

// TestBuildOverflow: a build that outgrows the record store's offset table is
// a 400 naming the bound, from a body's records and from a record file alike,
// and the collection is not created.
func TestBuildOverflow(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(root+"/records.txt", []byte(strings.Repeat("alpha beta gamma delta\n", 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	store, ts := newServerWith(t, "", StoreOptions{RecordFileRoot: root})
	record := `["alpha","beta","gamma","delta"]` // five bytes coded
	bodies := map[string]string{
		"records": `{"records":[` + strings.Repeat(record+",", 7) + record + `],"options":{"budget_units":64}}`,
		"file":    `{"file":"records.txt","options":{"budget_units":64}}`,
	}
	for name, body := range bodies {
		if code, m := doJSON(t, ts, "PUT", "/collections/"+name, body); code != http.StatusOK {
			t.Fatalf("%s under the bound: %d %v", name, code, m)
		}
	}
	defer snapfmt.SetPackLimit(21)() // four records fit, nothing more
	for name, body := range bodies {
		code, m := doJSON(t, ts, "PUT", "/collections/over-"+name, body)
		if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(m["error"]), "offset table") {
			t.Errorf("%s past the bound: %d %v, want a 400 naming the offset table", name, code, m)
		}
		if _, err := store.Get("over-" + name); err == nil {
			t.Errorf("%s past the bound left a collection behind", name)
		}
	}
}

// BenchmarkBuildDecode is the decode stage of a build alone: body to
// records plus vocabulary, by the scanner and by the reference.
func BenchmarkBuildDecode(b *testing.B) {
	body := marshalBuildBody(b, benchCollectionRecords(b, 20000), `{}`)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := getScanner(bytes.NewReader(body))
			got, err := sc.readBuild()
			putScanner(sc)
			if err != nil || got.corpus.Len() != 20000 {
				b.Fatalf("%d records, %v", got.corpus.Len(), err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ref refBuildRequest
			if err := refDecode(bytes.NewReader(body), &ref); err != nil {
				b.Fatal(err)
			}
			if _, recs, _ := refRecords(ref.Records); len(recs) != 20000 {
				b.Fatalf("%d records", len(recs))
			}
		}
	})
}

// TestBuildByteIdentity: a body built through the handler and the same body
// built the old way — decoded by encoding/json, interned by
// Vocabulary.Record, handed to the same engine constructor and Store.Create —
// leave byte-identical snapshot and vocabulary files and equal stats. That
// is why accuracy and disk figures cannot move with the ingest path.
func TestBuildByteIdentity(t *testing.T) {
	records := benchCollectionRecords(t, 2000)
	// Non-ASCII and escaped tokens take the scanner's slow path.
	records = append(records, []string{"é", "\u00e9", "tab\t", "quote\"", "😀", "e17"})
	// A build is one index: the one-segment layout is the only one left.
	t.Run("segments=1", func(t *testing.T) {
		body := marshalBuildBody(t, records, `{"seed":7}`)

		refDir := t.TempDir()
		refStore, err := NewStore(refDir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		var ref refBuildRequest
		if err := refDecode(bytes.NewReader(body), &ref); err != nil {
			t.Fatal(err)
		}
		voc, recs, _ := refRecords(ref.Records)
		eng, err := gbkmv.Build(recs, gbkmv.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		refColl, err := refStore.Create("c", voc, eng)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		store, ts := newServer(t, dir)
		if code, m := doJSON(t, ts, "PUT", "/collections/c", string(body)); code != http.StatusOK {
			t.Fatalf("build: %d %v", code, m)
		}
		coll, err := store.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := coll.Stats(), refColl.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("stats differ:\n handler   %+v\n reference %+v", got, want)
		}
		for _, path := range []func(string, uint64) string{indexPath, vocabPath} {
			got, err := os.ReadFile(path(coll.gens.dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path(refColl.gens.dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the reference build's (%d vs %d bytes)", path("", 1), len(got), len(want))
			}
		}
		gotMeta, err := readMeta(store.fs, coll.gens.dir)
		if err != nil {
			t.Fatal(err)
		}
		wantMeta, err := readMeta(refStore.fs, refColl.gens.dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMeta.Checksums, wantMeta.Checksums) || len(gotMeta.Checksums) == 0 {
			t.Errorf("snapshot checksums %v, reference %v", gotMeta.Checksums, wantMeta.Checksums)
		}
	})
}
