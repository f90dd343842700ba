package gbkmv_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gbkmv"
)

func numericRecords(m, span, stride int) []gbkmv.Record {
	out := make([]gbkmv.Record, m)
	for i := range out {
		elems := make([]gbkmv.Element, 0, span)
		for j := 0; j < span; j++ {
			elems = append(elems, gbkmv.Element(i*stride+j))
		}
		out[i] = gbkmv.NewRecord(elems)
	}
	return out
}

func TestBuildErrors(t *testing.T) {
	if _, err := gbkmv.Build(nil, gbkmv.Options{}); err == nil {
		t.Error("empty build accepted")
	}
	if _, err := gbkmv.Build(numericRecords(3, 10, 5), gbkmv.Options{BufferBits: -7}); err == nil {
		t.Error("invalid BufferBits accepted")
	}
	if _, err := gbkmv.Build(numericRecords(3, 10, 5), gbkmv.Options{BudgetFraction: 2}); err == nil {
		t.Error("invalid BudgetFraction accepted")
	}
}

func TestBuildAndSearch(t *testing.T) {
	records := numericRecords(100, 200, 20) // heavy overlap between neighbors
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Query = record 50; its neighbors overlap by 90%, 80%, ...
	hits := ix.Search(records[50], 0.5)
	found := false
	for _, id := range hits {
		if id == 50 {
			found = true
		}
	}
	if !found {
		t.Error("self not found at t*=0.5")
	}
	// Far-away records (no overlap) must not be returned.
	for _, id := range hits {
		if id < 35 || id > 65 {
			t.Errorf("implausible hit %d for query 50", id)
		}
	}
}

func TestEstimateAgainstTruth(t *testing.T) {
	records := numericRecords(50, 300, 30)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := records[10]
	// Truth: C(q, records[11]) = 270/300 = 0.9.
	got := ix.Estimate(q, 11)
	if math.Abs(got-0.9) > 0.15 {
		t.Errorf("Estimate = %v, want ~0.9", got)
	}
	if got := ix.Estimate(q, 40); got > 0.1 {
		t.Errorf("disjoint estimate = %v, want ~0", got)
	}
}

func TestEstimateAllLength(t *testing.T) {
	records := numericRecords(30, 50, 10)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ests := ix.EstimateAll(records[0])
	if len(ests) != 30 {
		t.Fatalf("EstimateAll length = %d", len(ests))
	}
	if ests[0] < 0.5 {
		t.Errorf("self estimate = %v, want high", ests[0])
	}
}

func TestAddThenSearch(t *testing.T) {
	records := numericRecords(40, 100, 15)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	novel := gbkmv.NewRecord([]gbkmv.Element{9000, 9001, 9002, 9003, 9004, 9005, 9006, 9007, 9008, 9009})
	id := ix.Add(novel)
	if id != 40 {
		t.Fatalf("Add returned id %d, want 40", id)
	}
	hits := ix.Search(novel, 0.5)
	found := false
	for _, h := range hits {
		if h == id {
			found = true
		}
	}
	if !found {
		t.Error("added record not retrievable")
	}
}

func TestStats(t *testing.T) {
	records := numericRecords(60, 120, 20)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.NumRecords != 60 {
		t.Errorf("NumRecords = %d", s.NumRecords)
	}
	if s.Tau <= 0 || s.Tau > 1 {
		t.Errorf("Tau = %v", s.Tau)
	}
	if s.UsedUnits <= 0 || s.SizeBytes <= 0 {
		t.Errorf("UsedUnits=%d SizeBytes=%d", s.UsedUnits, s.SizeBytes)
	}
	if s.BufferBits < 0 {
		t.Errorf("BufferBits = %d", s.BufferBits)
	}
}

func TestNoBufferOption(t *testing.T) {
	records := numericRecords(60, 120, 20)
	ix, err := gbkmv.Build(records, gbkmv.Options{BufferBits: gbkmv.NoBuffer, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().BufferBits; got != 0 {
		t.Errorf("NoBuffer index has r=%d", got)
	}
}

func TestManualBufferOption(t *testing.T) {
	records := numericRecords(60, 120, 20)
	ix, err := gbkmv.Build(records, gbkmv.Options{BufferBits: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().BufferBits; got != 24 {
		t.Errorf("manual buffer r=%d, want 24", got)
	}
}

func TestVocabularyBasics(t *testing.T) {
	v := gbkmv.NewVocabulary()
	a := v.ID("hello")
	b := v.ID("world")
	if a == b {
		t.Fatal("distinct tokens share an id")
	}
	if got := v.ID("hello"); got != a {
		t.Error("repeated token got a new id")
	}
	if got, ok := v.Lookup("world"); !ok || got != b {
		t.Error("Lookup failed")
	}
	if _, ok := v.Lookup("nope"); ok {
		t.Error("Lookup invented a token")
	}
	if v.Token(a) != "hello" || v.Token(Element999()) != "" {
		t.Error("Token mapping wrong")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d", v.Len())
	}
}

// Element999 returns an id that no test vocabulary allocates.
func Element999() gbkmv.Element { return gbkmv.Element(999) }

func TestVocabularyRecordRoundTrip(t *testing.T) {
	v := gbkmv.NewVocabulary()
	r := v.Record([]string{"b", "a", "b", "c"})
	if len(r) != 3 {
		t.Fatalf("record = %v", r)
	}
	toks := v.Tokens(r)
	seen := map[string]bool{}
	for _, tok := range toks {
		seen[tok] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !seen[want] {
			t.Errorf("token %q lost in round trip", want)
		}
	}
}

// TestVocabularyRecordAllocs: a record of known tokens is one allocation, the
// slice it is sorted and deduplicated in — not that and a copy of it.
func TestVocabularyRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v := gbkmv.NewVocabulary()
	tokens := []string{"b", "a", "b", "c", "d"}
	v.Record(tokens)
	if n := testing.AllocsPerRun(100, func() { v.Record(tokens) }); n != 1 {
		t.Errorf("Record allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { v.QueryRecord(tokens) }); n != 1 {
		t.Errorf("QueryRecord allocates %v times, want 1", n)
	}
}

func TestVocabularyConcurrent(t *testing.T) {
	v := gbkmv.NewVocabulary()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.ID("tok" + strconv.Itoa(i%100))
			}
		}(g)
	}
	wg.Wait()
	if v.Len() != 100 {
		t.Errorf("Len = %d, want 100", v.Len())
	}

	// Readers beside a writer that grows the slab (every 500th token 3 kB long,
	// so chunks fill and open) and the id table (to 16k slots). The writer is
	// the only one to intern, so id i is token i; a reader keeps every string
	// it was handed, and each must still hold its token once the writer is
	// done.
	const n = 12000
	tok := func(i int) string {
		if i%500 == 0 {
			return "w" + strconv.Itoa(i) + strings.Repeat("x", 3000)
		}
		return "w" + strconv.Itoa(i)
	}
	v = gbkmv.NewVocabulary()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i += 4 {
			if i%8 == 0 {
				v.Record([]string{tok(i), tok(i + 1), tok(i + 2), tok(i + 3)})
				continue
			}
			var text []byte
			var ends []int
			for k := i; k < i+4; k++ {
				text = append(text, tok(k)...)
				ends = append(ends, len(text))
			}
			v.AppendIDs(nil, text, 0, ends)
		}
	}()
	kept := make([][]string, 4)
	for g := range kept {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-done:
					return
				default:
				}
				known := v.Len()
				if known == 0 {
					continue
				}
				i := (r*7919 + g) % known
				if id, ok := v.LookupBytes([]byte(tok(i))); !ok || id != gbkmv.Element(i) {
					t.Errorf("LookupBytes(token %d) = %d %v", i, id, ok)
					return
				}
				if r%2 == 0 {
					kept[g] = append(kept[g], v.Token(gbkmv.Element(i)))
				} else {
					kept[g] = append(kept[g], v.Tokens(gbkmv.Record{gbkmv.Element(i)})...)
				}
				if got := kept[g][len(kept[g])-1]; got != tok(i) {
					t.Errorf("token %d read as %.20q", i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v.Len() != n {
		t.Fatalf("Len = %d, want %d", v.Len(), n)
	}
	for g, strs := range kept {
		for _, s := range strs {
			id, ok := v.Lookup(s)
			if !ok || tok(int(id)) != s {
				t.Fatalf("reader %d kept %.20q, which no longer reads as a token", g, s)
			}
		}
	}
}

func TestPaperIntroScenario(t *testing.T) {
	// The running record-matching example from the paper's introduction.
	voc := gbkmv.NewVocabulary()
	x := voc.Record([]string{"five", "guys", "burgers", "and", "fries", "downtown", "brooklyn", "new", "york"})
	y := voc.Record([]string{"five", "kitchen", "berkeley"})
	ix, err := gbkmv.Build([]gbkmv.Record{x, y}, gbkmv.Options{BudgetFraction: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := voc.Record([]string{"five", "guys"})
	// At full budget the sketch is exact: C(q, x) = 1, C(q, y) = 0.5.
	if got := ix.Estimate(q, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("C(Q, X) = %v, want 1", got)
	}
	if got := ix.Estimate(q, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("C(Q, Y) = %v, want 0.5", got)
	}
	hits := ix.Search(q, 0.75)
	if len(hits) != 1 || hits[0] != 0 {
		t.Errorf("Search = %v, want [0]", hits)
	}
}

func TestSaveLoadPublicAPI(t *testing.T) {
	records := numericRecords(50, 100, 20)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := gbkmv.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ix.Len() {
		t.Fatalf("Len after load = %d", got.Len())
	}
	q := records[3]
	a := ix.Search(q, 0.5)
	b := got.Search(q, 0.5)
	if len(a) != len(b) {
		t.Fatalf("search differs after load: %d vs %d", len(a), len(b))
	}
	if _, err := gbkmv.Load(bytes.NewReader([]byte("bad"))); err == nil {
		t.Error("garbage load accepted")
	}
}

func TestSearchTopKPublicAPI(t *testing.T) {
	records := numericRecords(60, 150, 25)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	top := ix.SearchTopK(records[10], 5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("top-k = %v", top)
	}
	if top[0].ID != 10 {
		t.Errorf("best match = %d, want 10 (self)", top[0].ID)
	}
}

func TestJoinPublicAPI(t *testing.T) {
	records := numericRecords(30, 200, 20) // 90% overlap between neighbors
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	pairs := ix.Join(0.8)
	if len(pairs) == 0 {
		t.Fatal("join found nothing despite heavy overlap")
	}
	for _, p := range pairs {
		if p.Q == p.X {
			t.Fatalf("self pair %v", p)
		}
		// Neighbors overlap by 180/200 = 0.9; pairs further than 2 apart
		// overlap ≤ 0.8 exactly at distance 2 (160/200), so ids must be
		// within 2 of each other (plus estimator slack of 1).
		if d := p.Q - p.X; d > 3 || d < -3 {
			t.Errorf("implausible join pair %v", p)
		}
	}
}

func TestEstimateWithErrorPublicAPI(t *testing.T) {
	records := numericRecords(40, 300, 30)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	est, se := ix.EstimateWithError(records[5], 6)
	if est < 0 || est > 1 {
		t.Errorf("estimate = %v", est)
	}
	if se < 0 {
		t.Errorf("stderr = %v", se)
	}
	// Full-budget index: exact estimates, zero error.
	full, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 1, BufferBits: gbkmv.NoBuffer, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	est, se = full.EstimateWithError(records[5], 6)
	if se != 0 {
		t.Errorf("exact sketch stderr = %v, want 0", se)
	}
	if est != records[5].Containment(records[6]) {
		t.Errorf("exact estimate = %v, want truth", est)
	}
}

func TestShingles(t *testing.T) {
	cases := []struct {
		s    string
		q    int
		want []string
	}{
		{"abcd", 2, []string{"ab", "bc", "cd"}},
		{"ab", 2, []string{"ab"}},
		{"a", 3, []string{"a"}},
		{"", 2, nil},
	}
	for _, c := range cases {
		got := gbkmv.Shingles(c.s, c.q)
		if len(got) != len(c.want) {
			t.Fatalf("Shingles(%q, %d) = %v, want %v", c.s, c.q, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Shingles(%q, %d) = %v, want %v", c.s, c.q, got, c.want)
			}
		}
	}
}

func TestShinglesPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Shingles with q=0 did not panic")
		}
	}()
	gbkmv.Shingles("abc", 0)
}

func TestShingleRecordErrorTolerantMatch(t *testing.T) {
	// The error-tolerant-search motivation: a one-typo query still has high
	// q-gram containment in the correct record.
	voc := gbkmv.NewVocabulary()
	records := []gbkmv.Record{
		voc.ShingleRecord("mississippi", 3),
		voc.ShingleRecord("minneapolis", 3),
	}
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := voc.ShingleRecord("missisippi", 3) // missing an 's'
	hits := ix.Search(q, 0.6)
	if len(hits) != 1 || hits[0] != 0 {
		t.Errorf("typo query matched %v, want [0]", hits)
	}
}

func TestConcurrentSearch(t *testing.T) {
	records := numericRecords(200, 150, 20)
	ix, err := gbkmv.Build(records, gbkmv.Options{BudgetFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Search is read-only after Build; hammer it from many goroutines and
	// check determinism.
	want := ix.Search(records[10], 0.5)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := ix.Search(records[10], 0.5)
				if len(got) != len(want) {
					errs <- "result length changed under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestReadRecords(t *testing.T) {
	input := "five guys burgers\n\n  five kitchen  \n"
	voc := gbkmv.NewVocabulary()
	records, lines, err := gbkmv.ReadRecords(strings.NewReader(input), voc)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || len(lines) != 2 {
		t.Fatalf("got %d records, %d lines", len(records), len(lines))
	}
	if len(records[0]) != 3 || len(records[1]) != 2 {
		t.Errorf("record sizes = %d, %d", len(records[0]), len(records[1]))
	}
	if lines[1] != "five kitchen" {
		t.Errorf("line[1] = %q", lines[1])
	}
	// Shared token "five" must intern to the same element.
	if records[0].IntersectSize(records[1]) != 1 {
		t.Error("shared token not interned consistently")
	}
	// Nil vocabulary is allocated internally.
	if _, _, err := gbkmv.ReadRecords(strings.NewReader("a b"), nil); err != nil {
		t.Errorf("nil vocabulary: %v", err)
	}
}

// TestReadRecordsMatchesFields holds the byte-level line reader to what
// ReadRecords was before it: strings.TrimSpace + strings.Fields per line,
// Vocabulary.Record per record — same records, same ids, same lines, blank
// lines skipped, on Unicode spaces, CRLF, invalid UTF-8 and enough records to
// cross several arena chunks.
func TestReadRecordsMatchesFields(t *testing.T) {
	var in strings.Builder
	in.WriteString("five guys burgers\r\n\n  five\tkitchen   berkeley \n \t \nb\xffd \xc3 five five\n\nx\u00a0y\u2003z\u0085\n")
	for i := 0; i < 3000; i++ {
		for j := 0; j <= i%40; j++ {
			in.WriteString(" t" + strconv.Itoa((i*7+j*13)%500))
		}
		in.WriteString("\n")
	}
	in.WriteString("last line without newline")

	wantVoc := gbkmv.NewVocabulary()
	var want []gbkmv.Record
	var wantLines []string
	for _, line := range strings.Split(in.String(), "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(line, "\r"))
		if line == "" {
			continue
		}
		want = append(want, wantVoc.Record(strings.Fields(line)))
		wantLines = append(wantLines, line)
	}

	voc := gbkmv.NewVocabulary()
	got, lines, err := gbkmv.ReadRecords(strings.NewReader(in.String()), voc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(lines) != len(want) {
		t.Fatalf("%d records, %d lines, want %d", len(got), len(lines), len(want))
	}
	for i := range want {
		if lines[i] != wantLines[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], wantLines[i])
		}
		if len(got[i]) != len(want[i]) || got[i].IntersectSize(want[i]) != len(want[i]) {
			t.Fatalf("record %d (%q) = %v, want %v", i, lines[i], got[i], want[i])
		}
	}
	if voc.Len() != wantVoc.Len() {
		t.Fatalf("vocabulary of %d tokens, want %d", voc.Len(), wantVoc.Len())
	}
	for id := 0; id < voc.Len(); id++ {
		if e := gbkmv.Element(id); voc.Token(e) != wantVoc.Token(e) {
			t.Fatalf("token %d = %q, want %q", id, voc.Token(e), wantVoc.Token(e))
		}
	}
	// Records share arena chunks: appending to one must reallocate, not
	// write into its neighbour.
	next := append(gbkmv.Record(nil), got[1]...)
	_ = append(got[0], 1<<40)
	if got[1].IntersectSize(next) != len(next) {
		t.Fatal("append to a record overwrote the next one")
	}
}

// TestReadRecordsLineLimit: a line may be as long as the 1 MB scan buffer;
// a longer one is an error, not a silently split record.
func TestReadRecordsLineLimit(t *testing.T) {
	fits := strings.Repeat("a", 1<<20-1) + "\nb\n"
	records, _, err := gbkmv.ReadRecords(strings.NewReader(fits), nil)
	if err != nil || len(records) != 2 {
		t.Fatalf("line of 1 MB - 1: %d records, %v", len(records), err)
	}
	if _, _, err := gbkmv.ReadRecords(strings.NewReader(strings.Repeat("a", 1<<20+1)+"\nb\n"), nil); err == nil {
		t.Fatal("line over 1 MB accepted")
	}
}
