package gbkmv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
// records, vocabularies large enough for gaps of 2¹⁴ and more, which escape
// their class nibble, and one record of 100 000 tokens, whose coding is
// longer than a chunk of the store.
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
			if empty := b.EndRecord(); empty != (len(tokens) == 0) {
				t.Fatalf("seed %d: EndRecord of record %d of %d tokens says empty %v", seed, i, len(tokens), empty)
			}
		}
		c, err := b.Corpus()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, rec := range records {
			if n := c.recs.RecordLen(i); n != len(rec) {
				t.Fatalf("seed %d: record %d has %d distinct elements in the corpus, want %d", seed, i, n, len(rec))
			}
		}
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
		if again, err := b.Corpus(); again.Len() != 0 || err != nil {
			t.Errorf("seed %d: the builder kept %d records after handing its corpus over (%v)", seed, again.Len(), err)
		}
	}
}

// TestCorpusOverflow: the record store's 32-bit offset table bounds a corpus,
// and a build has no bound of its own on what it reads (a -record-files file
// is as long as it is). With the bound lowered, the builder reports the first
// record that does not fit as Corpus's error, with the records before it, and
// stays usable; NewEngine reports records that do not pack;
// and a corpus is not partitioned into stores past the bound.
func TestCorpusOverflow(t *testing.T) {
	line := strings.Repeat("alpha beta gamma delta\n", 8) // 3 bytes a record: its length, then four gaps of a nibble each
	b := NewRecordBuilder(NewVocabulary())
	if err := b.ReadLines(strings.NewReader(line), nil); err != nil {
		t.Fatal(err)
	}
	whole, err := b.Corpus()
	if err != nil || whole.Len() != 8 {
		t.Fatalf("Corpus under the bound: %d records, %v", whole.Len(), err)
	}

	restore := snapfmt.SetPackLimit(15) // four records fit, nothing more
	defer restore()
	if err := b.ReadLines(strings.NewReader(line), nil); err != nil {
		t.Fatalf("ReadLines past the bound: %v, want the error from Corpus", err)
	}
	b.Token([]byte("alpha"))
	b.EndRecord()
	c, err := b.Corpus()
	if err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("Corpus past the bound: %v", err)
	}
	if c.Len() != 4 {
		t.Errorf("the builder kept %d records, want the 4 that fit", c.Len())
	}
	b.Token([]byte("alpha"))
	b.EndRecord()
	if c, err := b.Corpus(); err != nil || c.Len() != 1 {
		t.Errorf("the builder after an overflow: %d records, %v; want 1 and no error", c.Len(), err)
	}

	records := whole.Records()
	if _, err := NewEngine("", records, EngineOptions{BudgetUnits: 64}); err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("NewEngine over records past the bound: %v", err)
	}
}

// TestUnsortedRecordRefused: a record that breaks the Record invariant is
// named with one text, whichever way the records arrive — as slices, which
// the GB-KMV builds' counting pass checks as it reads them and the baselines
// as they copy them, or into a corpus, whose store refuses it where it would
// be coded, appended or packed — and so is Build's: it refuses what
// NewEngine does.
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
		opt := EngineOptions{BudgetUnits: 64}
		for entry, build := range map[string]func() (Engine, error){
			"NewEngine":       func() (Engine, error) { return NewEngine("exact", records, opt) },
			"NewEngine gbkmv": func() (Engine, error) { return NewEngine("gbkmv", records, opt) },
			"NewEngine gkmv":  func() (Engine, error) { return NewEngine("gkmv", records, opt) },
			"NewEngineFromCorpus": func() (Engine, error) {
				var c Corpus
				for _, rec := range records {
					if err := c.recs.Append(rec); err != nil {
						return nil, unsortedError(err)
					}
				}
				return NewEngineFromCorpus(&c, opt)
			},
			"PackRecords": func() (Engine, error) {
				recs, err := snapfmt.PackRecords(records, 2)
				if err != nil {
					return nil, unsortedError(err)
				}
				return NewEngineFromCorpus(&Corpus{recs: recs}, opt)
			},
			"Build": func() (Engine, error) {
				ix, err := Build(records, Options{BudgetUnits: 64})
				if err != nil {
					return nil, err
				}
				return ix, nil
			},
		} {
			if _, err := build(); err == nil || err.Error() != want {
				t.Errorf("%s, %s: %v, want %q", tc.name, entry, err, want)
			}
		}
	}
	if _, err := NewEngine("", good, EngineOptions{BudgetUnits: 64}); err != nil {
		t.Errorf("sorted records refused: %v", err)
	}
	want := "gbkmv: record 1 is not sorted and deduplicated (see NewRecord)"
	if _, err := Build([]Record{{1, 2, 3}, {3, 1, 2}, {4, 5}}, Options{BudgetUnits: 64}); err == nil || err.Error() != want {
		t.Errorf("Build: %v, want %q", err, want)
	}
}

// serialBuilder is the reference the pipelined RecordBuilder is held to: the
// builder as it was before it had workers, one goroutine interning each
// record's tokens as the record ends (Vocabulary.AppendIDs), sorting and
// deduplicating the ids and coding the record onto the store. The one
// departure is the pipeline's contract on overflow: the first record that does
// not fit ends the corpus, where the old builder went on to try the next.
type serialBuilder struct {
	voc  *Vocabulary
	text []byte
	ends []int
	open []Element
	recs snapfmt.PackedRecords
	err  error
}

func (s *serialBuilder) token(tok []byte) {
	s.text = append(s.text, tok...)
	s.ends = append(s.ends, len(s.text))
}

func (s *serialBuilder) endRecord() (empty bool) {
	empty = len(s.ends) == 0
	s.open = s.voc.AppendIDs(s.open[:0], s.text, 0, s.ends)
	s.text, s.ends = s.text[:0], s.ends[:0]
	slices.Sort(s.open)
	if s.err == nil {
		if err := s.recs.Append(slices.Compact(s.open)); err != nil {
			s.err = fmt.Errorf("gbkmv: %w", err)
		}
	}
	return empty
}

// builderStream is a seeded token stream for the differential test, for a
// builder whose blocks are handed on at size bytes: records from empty to
// two blocks long, so that blocks end inside runs of records of every size;
// new tokens all along, each repeated within its record and in the records
// after it, so that a block keeps meeting tokens an earlier block — or the
// block before it, still interning — saw first; the empty token (a null in a
// body) and empty records among them. A record of size/8 tokens or more is
// longer than a block: a token counts 8 bytes besides its text.
func builderStream(seed int64, size int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	var stream [][]string
	var seen []string
	for i := 0; i < 1000; i++ {
		var n int
		switch r := rng.Intn(100); {
		case r < 8:
			n = 0
		case r < 10:
			n = size/8 + rng.Intn(size/8) // longer than a block
		default:
			n = 1 + rng.Intn(150)
		}
		tokens := make([]string, n)
		for j := range tokens {
			switch r := rng.Intn(100); {
			case r < 2:
				tokens[j] = ""
			case r < 25 || len(seen) == 0:
				tokens[j] = fmt.Sprintf("n%d-%d", seed, len(seen))
				seen = append(seen, tokens[j])
			case r < 60 && j > 0:
				tokens[j] = tokens[rng.Intn(j)]
			default:
				tokens[j] = seen[len(seen)-1-rng.Intn(min(len(seen), 500))]
			}
		}
		stream = append(stream, tokens)
	}
	return stream
}

// TestRecordBuilderMatchesSerial holds the pipelined builder to the serial
// reference at 1, 2 and 8 procs: the same vocabulary to the Save byte (ids in
// first-appearance order), the same coded corpus to the byte, the same first
// empty record and the same error — with the record store's bound lowered
// to fall inside a block too. Each proc count has its own block size, and a
// stream with records longer than that size. After Corpus every block is back
// on the free list, the workers gone with them.
func TestRecordBuilderMatchesSerial(t *testing.T) {
	save := func(v *Vocabulary) []byte {
		var buf bytes.Buffer
		if err := v.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(1); seed <= 3; seed++ {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			_, size := blockShape(procs)
			stream := builderStream(seed, size)
			if !slices.ContainsFunc(stream, func(tokens []string) bool { return len(tokens) >= size/8 }) {
				t.Fatalf("seed %d, %d procs: no record in the stream is longer than a %d-byte block", seed, procs, size)
			}
			for _, limit := range []int{0, 40 << 10} { // 0: no bound but the real one
				ref := &serialBuilder{voc: NewVocabulary()}
				refEmpty := -1
				func() {
					if limit > 0 {
						defer snapfmt.SetPackLimit(limit)()
					}
					for i, tokens := range stream {
						for _, tok := range tokens {
							ref.token([]byte(tok))
						}
						if ref.endRecord() && refEmpty < 0 {
							refEmpty = i
						}
					}
				}()
				if (limit > 0) != (ref.err != nil) {
					t.Fatalf("seed %d, limit %d: the reference's error is %v", seed, limit, ref.err)
				}
				voc := NewVocabulary()
				b := NewRecordBuilder(voc)
				if b.size != size {
					t.Fatalf("%d procs: blocks of %d bytes, want %d", procs, b.size, size)
				}
				empty := -1
				var c *Corpus
				var err error
				func() {
					if limit > 0 {
						defer snapfmt.SetPackLimit(limit)()
					}
					for i, tokens := range stream {
						for _, tok := range tokens {
							b.Token([]byte(tok))
						}
						if b.EndRecord() && empty < 0 {
							empty = i
						}
					}
					c, err = b.Corpus()
				}()
				where := fmt.Sprintf("seed %d, limit %d, %d procs", seed, limit, procs)
				if fmt.Sprint(err) != fmt.Sprint(ref.err) {
					t.Errorf("%s: error %v, reference %v", where, err, ref.err)
				}
				if empty != refEmpty {
					t.Errorf("%s: first empty record %d, reference %d", where, empty, refEmpty)
				}
				if !bytes.Equal(save(voc), save(ref.voc)) {
					t.Errorf("%s: the vocabulary's bytes differ from the reference's (%d tokens vs %d)", where, voc.Len(), ref.voc.Len())
				}
				if !bytes.Equal(storeSection(t, &c.recs), storeSection(t, &ref.recs)) {
					t.Errorf("%s: the corpus's bytes differ from the reference's (%d records vs %d)", where, c.Len(), ref.recs.Len())
				}
				if b.made > 1 && (b.made != len(b.free)+1 || b.work != nil) {
					t.Errorf("%s: after Corpus %d of %d blocks are free beside the open one, workers running %v", where, len(b.free), b.made, b.work != nil)
				}
				if procs > 1 && b.made < 2 {
					t.Errorf("%s: the builder never handed a block to a worker", where)
				}
			}
		}
	}
}
