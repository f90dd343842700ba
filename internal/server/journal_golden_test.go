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
// build opens what the other wrote. Two lines were written again since, the
// /stats bodies of the snapshot and of the reopened store, when index_bytes
// came to count an 8-byte summary a record in place of a key arena's offset
// and completeness tables: index_bytes grew by 3m − 4 for m records, and no
// other byte of either body moved. Three more were written again when frames
// came to carry vocabulary ids in place of JSON token text: the two journal
// files' lines (34 862 and 33 655 bytes became 10 303 and 9 718) and the
// reopened store's /stats body, whose wal_offset_bytes and wal_synced_bytes
// are the live journal's length; every index and vocabulary file, every
// other response and every other field of that body stayed as they were.
// Six more moved with snapshot format 5, whose records section codes gaps in
// bits, by class: the two index files (12 701 and 18 188 bytes became 9 145
// and 13 311), the two vocabulary files (their version byte, and nothing
// else), the snapshot response (its record_bytes, the packed records held in
// memory in that coding: 19 686 → 14 809) and the reopened store's /stats
// body (record_bytes 25 784 → 19 630, and storage.snapshot_bytes, the index
// and vocabulary files' size, 42 063 → 37 186). The journals, every other
// response and every other field of both bodies stayed as they were. Three
// moved when the snapshot became the bare index stream, without the engine
// container's 15-byte header: the two index files (9 145 and 13 311 bytes
// became 9 130 and 13 296) and the reopened store's /stats body
// (storage.snapshot_bytes 37 186 → 37 171, and no other field).

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
	store, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
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
	reopened, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
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
