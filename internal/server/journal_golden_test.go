package server

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The write path's bytes are pinned to what the store wrote and answered
// before an insert stopped being a [][]string on its way to the journal
// (testdata/journal_golden.txt, written by this test under
// -update-journal-golden at the commit before): one line a request — status,
// body length, SHA-256 of the body — then the SHA-256 of every journal, index
// and vocabulary file the sequence left in the data directory, then what a
// store that opens that directory after a crash answers. Equal files are why
// disk_bytes_per_elem cannot have moved with that change, and why either
// build opens what the other wrote.

var updateJournalGolden = flag.Bool("update-journal-golden", false, "rewrite testdata/journal_golden.txt from this build's files and responses")

const journalGoldenPath = "testdata/journal_golden.txt"

// journalGoldenRequests is the sequence: plain and request-tagged inserts of
// one to four records, a retried request id now and then, tokens the frame
// encoder escapes or coerces (HTML characters, U+2028/9, control characters,
// invalid UTF-8, lone surrogates), bodies that are refused, and a snapshot
// half-way through.
func journalGoldenRequests(records [][]string) []goldenRequest {
	escapes := []string{
		`["<script>","a&b","x>y","quote\"","back\\slash","/slash"]`,
		`["line\u2028sep","para\u2029sep","tab\t","nl\n","cr\r","bell\u0007","nul\u0000","del\u007f"]`,
		"[\"bad\xffbyte\",\"two\xff\xfebytes\",\"cut\xe2\x82\",\"ok\xe2\x82\xac\"]",
		`["\ud83d\ude00","\ud83d","\ude00x","é","e\u0301","😀",""," ",null]`,
		`["dup","dup","<dup>","dup"]`,
	}
	var reqs []goldenRequest
	add := func(path, format string, args ...any) {
		reqs = append(reqs, goldenRequest{"/collections/c/" + path, fmt.Sprintf(format, args...)})
	}
	quote := func(tokens []string) string {
		return `["` + strings.Join(tokens, `","`) + `"]`
	}
	for i := 0; len(reqs) < 200; i++ {
		var batch []string
		for j := 0; j <= i%4; j++ {
			r := records[(i*37+j*11)%len(records)]
			batch = append(batch, quote(r[:min(len(r), 5+(i+j)%40)]))
		}
		if i%7 == 3 {
			batch = append(batch, escapes[(i/7)%len(escapes)])
		}
		recs := "[" + strings.Join(batch, ",") + "]"
		switch {
		case i%5 == 1:
			add("records", `{"records":%s,"request_id":"rid-%d"}`, recs, i)
		case i%5 == 2:
			add("records", `{"request_id":"r<%d>&\"q\"\u2028","records":%s}`, i, recs)
		default:
			add("records", `{"records":%s}`, recs)
		}
		switch {
		case i%11 == 6:
			add("records", `{"records":[["other","records"]],"request_id":"rid-%d"}`, i-i%5+1) // a retry: 409
		case i%13 == 5:
			add("records", `{"records":[["a"],[]]}`) // an empty record
		case i%17 == 9:
			add("records", `{"records":[]}`)
		case i%19 == 4:
			add("records", `{"records":[["a"]],"unknown":1}`)
		}
		if i == 80 {
			add("snapshot", "")
		}
	}
	return reqs
}

func TestWritePathBytesMatchGolden(t *testing.T) {
	records := benchCollectionRecords(t, 600)
	reqs := journalGoldenRequests(records[200:])
	var got bytes.Buffer
	dir := t.TempDir()
	store, err := NewStore(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(s *Store) func(method, path, body string) (int, []byte) {
		h := Handler(s)
		return func(method, path, body string) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
	}
	do := serve(store)
	build := marshalBuildBody(t, records[:200], `{"seed":7,"budget_units":20000,"buffer_bits":64}`)
	if code, body := do("PUT", "/collections/c", string(build)); code != http.StatusOK {
		t.Fatalf("build: %d %s", code, body)
	}
	statuses := map[int]int{}
	for i, rq := range reqs {
		code, body := do("POST", rq.path, rq.body)
		statuses[code]++
		fmt.Fprintf(&got, "%d %s %d %d %x\n", i, strings.TrimPrefix(rq.path, "/collections/c/"), code, len(body), sha256.Sum256(body))
	}
	if statuses[http.StatusOK] < 150 || statuses[http.StatusConflict] < 5 || statuses[http.StatusBadRequest] < 10 {
		t.Fatalf("the sequence answers %v: it should mostly be served, with a few duplicates and refusals", statuses)
	}
	// The files as a crash would leave them: every acknowledged insert is
	// already fsynced, and Close (which would snapshot) is not called.
	var names []string
	for _, pattern := range []string{"journal-*.log", "index-*.snap", "vocab-*.snap"} {
		matched, err := filepath.Glob(filepath.Join(dir, "c", pattern))
		if err != nil || len(matched) == 0 {
			t.Fatalf("%s: %v, %v", pattern, matched, err)
		}
		names = append(names, matched...)
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", filepath.Base(name), len(b), sha256.Sum256(b))
	}
	// What replay makes of them.
	reopened, err := NewStore(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	do = serve(reopened)
	for _, rq := range []goldenRequest{
		{"GET /collections/c/stats", ""},
		{"POST /collections/c/search", `{"query":["<script>","a&b","x>y"],"threshold":0.5,"with_tokens":true}`},
		{"POST /collections/c/search", `{"query":["line\u2028sep","tab\t","nul\u0000"],"threshold":0.3,"with_tokens":true}`},
		{"POST /collections/c/search", `{"query":["bad\ufffdbyte","two\ufffd\ufffdbytes"],"threshold":0.3,"with_tokens":true}`},
		{"POST /collections/c/topk", `{"query":` + quote46(records[237]) + `,"k":5,"with_tokens":true}`},
		{"POST /collections/c/records", `{"records":[["again"]],"request_id":"rid-11"}`},  // remembered by the commit record
		{"POST /collections/c/records", `{"records":[["again"]],"request_id":"rid-151"}`}, // remembered by the journal
		{"POST /collections/c/records", `{"records":[["again","<&>"]],"request_id":"rid-new"}`},
	} {
		method, path, _ := strings.Cut(rq.path, " ")
		code, body := do(method, path, rq.body)
		fmt.Fprintf(&got, "reopened %s %d %d %x\n", path, code, len(body), sha256.Sum256(body))
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if *updateJournalGolden {
		if err := os.WriteFile(journalGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(journalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// quote46 is a record's first 46 tokens as a JSON array.
func quote46(r []string) string {
	return `["` + strings.Join(r[:min(len(r), 46)], `","`) + `"]`
}
