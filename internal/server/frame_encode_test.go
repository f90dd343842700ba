package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gbkmv"
)

// checkFrameEncode encodes batch — each token coerced as Insert coerces it —
// echoing rid, against a vocabulary that already holds known, then applies
// the frames as replay does (scanned, recordSlab.add frame by frame, to the
// vocabulary they were encoded against) and as the leader and a follower do
// (addFrames over the whole stream, to a copy of the vocabulary before the
// encode). Both must come to the records Vocabulary.AppendIDs makes of the
// coerced tokens, sorted and deduplicated, in a third copy, and the three
// vocabularies must save to the same bytes: the frames carry exactly what the
// insert would have interned. Every frame echoes rid, coerced.
func checkFrameEncode(t testing.TB, batch [][]string, rid string, known []string) {
	t.Helper()
	vocab := func() *gbkmv.Vocabulary {
		v := gbkmv.NewVocabulary()
		for _, tok := range known {
			v.ID(string(appendCoerced(nil, tok)))
		}
		return v
	}
	coerced := make([][]string, len(batch))
	for i, tokens := range batch {
		for _, tok := range tokens {
			coerced[i] = append(coerced[i], string(appendCoerced(nil, tok)))
		}
	}
	rid = string(appendCoerced(nil, rid))
	enc, ref, lead := vocab(), vocab(), vocab()
	var scratch []gbkmv.Element
	frames, err := encodeFrames([]byte("prefix"), enc, packTokens(coerced), rid, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	frames = frames[len("prefix"):]
	if enc.Len() != ref.Len() {
		t.Fatalf("encoding %q interned %d tokens", batch, enc.Len()-ref.Len())
	}
	want := make([][]gbkmv.Element, len(coerced))
	for i, tokens := range coerced {
		b := packTokens([][]string{tokens})
		want[i] = ref.AppendIDs(nil, b.slab, 0, b.tokEnds)
		slices.Sort(want[i])
		want[i] = slices.Compact(want[i])
	}

	var replayed recordSlab
	s := newFrameScanner(frames, 0, "encoded")
	n, err := s.scanRuns(func(f *frame) error {
		if f.rid != rid {
			return fmt.Errorf("request id %q came back %q", rid, f.rid)
		}
		return replayed.add(enc, f)
	}, func(int, int, string) {})
	if err != nil || n != len(batch) || s.Offset() != int64(len(frames)) {
		t.Fatalf("batch %q, rid %q: %d entries to offset %d of %d, %v", batch, rid, n, s.Offset(), len(frames), err)
	}
	var applied recordSlab
	if err := applied.addFrames(lead, frames); err != nil {
		t.Fatalf("batch %q: the leader's apply: %v", batch, err)
	}
	for i := range want {
		if !slices.Equal(replayed.recs[i], want[i]) || !slices.Equal(applied.recs[i], want[i]) {
			t.Fatalf("record %d of %q (known %q): replayed %v, applied %v, want %v", i, batch, known, replayed.recs[i], applied.recs[i], want[i])
		}
	}
	var saved [3]bytes.Buffer
	for i, v := range []*gbkmv.Vocabulary{enc, lead, ref} {
		if err := v.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[2].Bytes()) || !bytes.Equal(saved[1].Bytes(), saved[2].Bytes()) {
		t.Fatalf("batch %q (known %q): the vocabularies the frames grew differ from the one the tokens grew", batch, known)
	}
}

// frameEncodeTable is what a token or a request id can hold that the encoder
// treats specially.
func frameEncodeTable() []string {
	var controls strings.Builder
	for c := 0; c <= 0x20; c++ {
		controls.WriteByte(byte(c))
	}
	return []string{
		"plain", "", " ", "e17", "snow☃man", "😀", "é", "e\u0301",
		`quote"`, `back\slash`, `/slash`, `\u0041 is not an escape here`,
		"<script>", "a&b", "x>y", "<&>",
		"line\u2028sep", "para\u2029sep", "\u2027\u202a", "\u2028", "\u2029\u2029",
		controls.String(), "tab\t", "nl\n", "cr\r", "\b\f", "nul\x00", "del\x7f", "\x1f",
		"bad\xffbyte", "two\xff\xfebytes", "\xff", "cut\xe2\x82", "ok\xe2\x82\xac",
		"overlong\xc0\x80", "surrogate\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x80", "\xe2\x80\xa8", "�", "a�\xff",
		strings.Repeat("long", 5000), strings.Repeat("\xffx", 3000),
	}
}

// TestFrameEncodeRoundTrip runs checkFrameEncode over the tokens the table
// holds: unknown to the vocabulary, partly known, all known, repeated, in
// empty records.
func TestFrameEncodeRoundTrip(t *testing.T) {
	table := frameEncodeTable()
	for i, s := range table {
		checkFrameEncode(t, [][]string{{s}}, "", nil)
		checkFrameEncode(t, [][]string{{s, table[(i+1)%len(table)]}, {table[(i+2)%len(table)]}}, s, table[:i])
		checkFrameEncode(t, [][]string{{s, s, table[(i+5)%len(table)], s}}, "", table[i%3:i%3+2])
	}
	checkFrameEncode(t, [][]string{table}, "rid-1", nil)
	checkFrameEncode(t, [][]string{table, table[:len(table)/2]}, "rid-2", table[len(table)/3:])
	checkFrameEncode(t, [][]string{table}, "", table)
	checkFrameEncode(t, [][]string{{}, {"a"}, {}}, "", []string{"a"})
	checkFrameEncode(t, [][]string{{}}, "r", nil)
}

// TestFrameBytes pins the coding on one record: the format byte, the request
// id, the known tokens' ids ascending as gaps, the others' bytes in record
// order, a repeated one again.
func TestFrameBytes(t *testing.T) {
	voc := gbkmv.NewVocabulary()
	for i := 0; i < 200; i++ {
		voc.ID(fmt.Sprint("t", i))
	}
	var scratch []gbkmv.Element
	frames, err := encodeFrames(nil, voc, packTokens([][]string{{"t150", "new", "t3", "t150", "b", "new"}}), "q", &scratch)
	if err != nil {
		t.Fatal(err)
	}
	// Ids 3 and 150: a gap of 3, then one of 147, two bytes as a uvarint.
	want := []byte{frameIDsRid, 1, 'q', 2, 3, 0x93, 0x01, 3, 'n', 'e', 'w', 1, 'b', 3, 'n', 'e', 'w'}
	if got := frames[12:]; !bytes.Equal(got, want) {
		t.Fatalf("payload % x, want % x", got, want)
	}
}

// TestFrameDecodeRefuses: every payload the encoder cannot write — a JSON
// frame of an earlier build, an unknown format, ids that do not ascend, a
// length past the payload's end — is an error, and one whose ids the
// vocabulary does not hold is refused by the apply.
func TestFrameDecodeRefuses(t *testing.T) {
	for _, c := range []struct {
		payload []byte
		err     string
	}{
		{[]byte(`["a","b"]`), "JSON token frame"},
		{[]byte(`{"rid":"r","tokens":["a"]}`), "JSON token frame"},
		{nil, "empty payload"},
		{[]byte{9}, "unknown frame format"},
		{[]byte{frameIDs}, "truncated id count"},
		{[]byte{frameIDs, 2, 5, 0}, "ids must ascend"},
		{[]byte{frameIDs, 3, 1}, "3 ids declared in 1 bytes"},
		{[]byte{frameIDs, 1, 0xff, 0xff, 0xff, 0xff, 0x1f}, "id past 2^32"},
		{[]byte{frameIDs, 0, 4, 'a'}, "token 0: 4 bytes declared, 1 left"},
		{[]byte{frameIDsRid, 9, 'r'}, "request id: 9 bytes declared"},
		{[]byte{frameIDs, 0, 0x80}, "token 0: truncated length"},
	} {
		var f frame
		err := decodeFrame(c.payload, &f)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("payload %q: %v, want an error saying %q", c.payload, err, c.err)
		}
	}
	if err := decodeFrame([]byte(`["a"]`), new(frame)); !errors.Is(err, gbkmv.ErrSnapshotFormat) {
		t.Errorf("a JSON frame is %v, want the format error startup names", err)
	}
	voc := gbkmv.NewVocabulary()
	voc.ID("a")
	var f frame
	if err := decodeFrame([]byte{frameIDs, 1, 1}, &f); err != nil {
		t.Fatal(err)
	}
	var rs recordSlab
	if err := rs.add(voc, &f); err == nil || !strings.Contains(err.Error(), "id 1 past the vocabulary's 1 tokens") {
		t.Errorf("an id past the vocabulary applied: %v", err)
	}
	if err := newPendingVocab(voc).admit(&f); err == nil {
		t.Error("an id past the vocabulary admitted")
	}
}

// TestEntryTooLargeRefusedAlike: a record whose frame the journal would
// refuse is refused by a memory-only store too (which frames nothing else),
// in the same words, and leaves nothing behind in either.
func TestEntryTooLargeRefusedAlike(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("frames a 64 MB record twice")
	}
	huge := [][]string{{"fits"}, {strings.Repeat("x", journalMaxEntry)}}
	var refusals []string
	for _, dir := range []string{"", t.TempDir()} {
		store, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		voc := gbkmv.NewVocabulary()
		eng, err := gbkmv.Build([]gbkmv.Record{voc.Record([]string{"seed"})}, gbkmv.Options{BudgetUnits: 1000})
		if err != nil {
			t.Fatal(err)
		}
		c, err := store.Create("c", voc, eng)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Insert(huge, "")
		if !errors.Is(err, errEntryTooLarge) || errors.Is(err, ErrStorage) {
			t.Fatalf("dir %q: a %d-byte token inserted: %v", dir, journalMaxEntry, err)
		}
		refusals = append(refusals, err.Error())
		if st := c.Stats(); st.NumRecords != 1 || st.VocabSize != 1 || st.WALOffsetBytes != 0 {
			t.Fatalf("dir %q: the refused insert left %+v", dir, st)
		}
		if ids, err := c.Insert([][]string{{"fits"}}, ""); err != nil || len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("dir %q: insert after the refusal: %v, %v", dir, ids, err)
		}
		store.Close()
	}
	if refusals[0] != refusals[1] {
		t.Fatalf("memory-only store: %s\npersistent store: %s", refusals[0], refusals[1])
	}
}

// FuzzFrameEncode: arbitrary token bytes and request ids, encoded against a
// vocabulary that already holds a fuzz-chosen prefix — filler tokens, then
// some of the record's own — scan and apply to the records and the
// vocabulary Vocabulary.AppendIDs makes of the coerced tokens
// (checkFrameEncode).
func FuzzFrameEncode(f *testing.F) {
	table := frameEncodeTable()
	for i, s := range table {
		f.Add([]byte(s), []byte(table[(i+3)%len(table)]), []byte(table[(i+7)%len(table)]), table[(i+11)%len(table)], uint8(i*5))
	}
	f.Add([]byte("a"), []byte("b"), []byte("c"), "", uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c []byte, rid string, known uint8) {
		if len(rid) > 1<<10 {
			rid = rid[:1<<10]
		}
		tokens := []string{string(a), string(b), string(c)}
		var prefix []string
		for i := 0; i < int(known>>3)*37; i++ {
			prefix = append(prefix, fmt.Sprint("filler-", i))
		}
		for k, tok := range tokens {
			if known&(1<<k) != 0 {
				prefix = append(prefix, tok)
			}
		}
		checkFrameEncode(t, [][]string{tokens, {string(c)}, {string(b), string(a), string(b)}}, rid, prefix)
	})
}
