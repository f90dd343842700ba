package gbkmv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gbkmv/internal/snapfmt"
)

// storeSection is the records section a store writes: its counts and every
// record's coding, in order.
func storeSection(t *testing.T, p *snapfmt.PackedRecords) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapfmt.NewWriter(&buf)
	w.Packed(p)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorpusMatchesRecords: what a RecordBuilder codes token by token is, to
// the byte, what PackRecords makes of Vocabulary.Record over the same tokens —
// codings, record boundaries, size, element count and top element; the one
// holds them in chunks and the other in a slab — so an engine cannot tell
// which way its store was built. The streams have duplicate tokens, empty
// records, a vocabulary large enough for three-byte deltas and one record of
// 100 000 tokens, whose coding is longer than a chunk of the store.
func TestCorpusMatchesRecords(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocabulary := 1 << (10 + 3*seed) // 2¹³ … 2²²
		var stream [][]string
		for i := 0; i < 300; i++ {
			n := rng.Intn(60)
			switch {
			case i%17 == 3:
				n = 0
			case i == 150:
				n = 100000
			}
			tokens := make([]string, n)
			for j := range tokens {
				tokens[j] = fmt.Sprintf("t%d", rng.Intn(vocabulary))
				if j > 0 && rng.Intn(8) == 0 {
					tokens[j] = tokens[rng.Intn(j)]
				}
			}
			stream = append(stream, tokens)
		}

		refVoc := NewVocabulary()
		var records []Record
		for _, tokens := range stream {
			records = append(records, refVoc.Record(tokens))
		}
		want, err := snapfmt.PackRecords(records, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}

		voc := NewVocabulary()
		b := NewRecordBuilder(voc)
		for i, tokens := range stream {
			for _, tok := range tokens {
				b.Token([]byte(tok))
			}
			if n, err := b.EndRecord(); err != nil || n != len(records[i]) {
				t.Fatalf("seed %d: EndRecord of record %d = %d, %v; want %d distinct elements", seed, i, n, err, len(records[i]))
			}
		}
		c := b.Corpus()
		if !bytes.Equal(storeSection(t, &c.recs), storeSection(t, &want)) || c.recs.SizeBytes() != want.SizeBytes() ||
			c.Elements() != want.Elements() || c.recs.Top() != want.Top() {
			t.Errorf("seed %d: the builder's store differs from PackRecords' (%d vs %d bytes, %d vs %d elements, top %d vs %d)",
				seed, c.recs.SizeBytes(), want.SizeBytes(), c.Elements(), want.Elements(), c.recs.Top(), want.Top())
		}
		if c.Len() != len(records) || voc.Len() != refVoc.Len() {
			t.Fatalf("seed %d: %d records over %d tokens, want %d over %d", seed, c.Len(), voc.Len(), len(records), refVoc.Len())
		}
		if !reflect.DeepEqual(c.Records(), want.All()) || !reflect.DeepEqual(c.Record(150), records[150]) {
			t.Errorf("seed %d: the corpus does not decode to the records", seed)
		}
		if again := b.Corpus(); again.Len() != 0 {
			t.Errorf("seed %d: the builder kept %d records after handing its corpus over", seed, again.Len())
		}
	}
}

// TestCorpusOverflow: the record store's 32-bit offset table bounds a corpus,
// and a build has no bound of its own on what it reads (a -record-files file
// is as long as it is). With the bound lowered, the builder reports the record
// that does not fit as an error — from EndRecord and through ReadLines — and
// stays usable; NewEngine reports records that do not pack;
// and a corpus is not partitioned into stores past the bound.
func TestCorpusOverflow(t *testing.T) {
	line := strings.Repeat("alpha beta gamma delta\n", 8) // 5 bytes a record: length and four ids
	b := NewRecordBuilder(NewVocabulary())
	if err := b.ReadLines(strings.NewReader(line), nil); err != nil {
		t.Fatal(err)
	}
	whole := b.Corpus()

	restore := snapfmt.SetPackLimit(21) // four records fit, nothing more
	defer restore()
	err := b.ReadLines(strings.NewReader(line), nil)
	if err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Fatalf("ReadLines past the bound: %v", err)
	}
	b.Token([]byte("alpha"))
	if _, err := b.EndRecord(); err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("EndRecord past the bound: %v", err)
	}
	if c := b.Corpus(); c.Len() != 4 {
		t.Errorf("the builder kept %d records, want the 4 that fit", c.Len())
	}

	records := whole.Records()
	if _, err := NewEngine("", records, EngineOptions{BudgetUnits: 64}); err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("NewEngine over records past the bound: %v", err)
	}
}

// TestUnsortedRecordRefused: a record that breaks the Record invariant is
// named by one check with one text, whichever way the records arrive — as
// slices, which are packed first, or as a corpus, which noted it as it coded.
func TestUnsortedRecordRefused(t *testing.T) {
	good := []Record{{1, 2, 3}, {}, {2, 5, 9}, {4}}
	for _, tc := range []struct {
		name string
		bad  Record
		at   int
	}{
		{"descending", Record{3, 1, 2}, 2},
		{"duplicate", Record{1, 2, 2}, 0},
		{"repeated zero", Record{0, 0}, 4},
	} {
		records := append(append(append([]Record{}, good[:tc.at]...), tc.bad), good[tc.at:]...)
		want := fmt.Sprintf("gbkmv: record %d is not sorted and deduplicated (see NewRecord)", tc.at)
		corpus := func() *Corpus {
			c, err := packCorpus(records)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		opt := EngineOptions{BudgetUnits: 64}
		for entry, build := range map[string]func() (Engine, error){
			"NewEngine":           func() (Engine, error) { return NewEngine("exact", records, opt) },
			"NewEngineFromCorpus": func() (Engine, error) { return NewEngineFromCorpus(corpus(), opt) },
		} {
			if _, err := build(); err == nil || err.Error() != want {
				t.Errorf("%s, %s: %v, want %q", tc.name, entry, err, want)
			}
		}
	}
	if _, err := NewEngine("", good, EngineOptions{BudgetUnits: 64}); err != nil {
		t.Errorf("sorted records refused: %v", err)
	}
}
