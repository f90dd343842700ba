package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gbkmv"
)

// checkFrameEncode holds encodeFrames to the reference for one batch and
// request id: the same bytes marshalFrame (encoding/json) writes, frames that
// scan back to what the reference decoder reads out of them, and tokens that
// come back as appendCoerced said they would — which is what makes what the
// Go API interns live equal to what replay interns.
func checkFrameEncode(t testing.TB, batch [][]string, rid string) {
	t.Helper()
	got, err := encodeFrames([]byte("prefix"), packTokens(batch), rid)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("prefix")
	for _, tokens := range batch {
		if want, err = marshalFrame(want, tokens, rid); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch %q, rid %q:\n frames %q\n want   %q", batch, rid, got, want)
	}
	frames := got[len("prefix"):]
	s := newFrameScanner(frames, 0, "encoded")
	entries, err := s.scanAll()
	if err != nil || len(entries) != len(batch) || s.Offset() != int64(len(frames)) {
		t.Fatalf("batch %q, rid %q: %d entries to offset %d of %d, %v", batch, rid, len(entries), s.Offset(), len(frames), err)
	}
	for i, e := range entries {
		n := binary.BigEndian.Uint32(frames)
		ref, err := decodeEntry(frames[12 : 12+n])
		frames = frames[12+n:]
		if err != nil {
			t.Fatalf("the reference decoder refuses frame %d of %q: %v", i, batch, err)
		}
		if ref.Tokens == nil {
			ref.Tokens = []string{}
		}
		if !reflect.DeepEqual(e, ref) {
			t.Fatalf("frame %d of %q, rid %q: scanned %+v, reference %+v", i, batch, rid, e, ref)
		}
		if coerced := string(appendCoerced(nil, rid)); e.RequestID != coerced {
			t.Fatalf("rid %q came back %q, coerced %q", rid, e.RequestID, coerced)
		}
		for j, tok := range batch[i] {
			if coerced := string(appendCoerced(nil, tok)); e.Tokens[j] != coerced {
				t.Fatalf("token %q came back %q, coerced %q", tok, e.Tokens[j], coerced)
			}
		}
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

func TestFrameEncodeMatchesEncodingJSON(t *testing.T) {
	table := frameEncodeTable()
	for i, s := range table {
		checkFrameEncode(t, [][]string{{s}}, "")
		checkFrameEncode(t, [][]string{{s, table[(i+1)%len(table)]}, {table[(i+2)%len(table)]}}, s)
	}
	checkFrameEncode(t, [][]string{table}, "rid-1")
	checkFrameEncode(t, [][]string{{}, {"a"}, {}}, "")
	checkFrameEncode(t, [][]string{{}}, "r")
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
		store, err := NewStore(dir, func(string, ...any) {})
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

// FuzzFrameEncode: arbitrary token bytes and request ids frame to the bytes
// encoding/json would have written, and decode back through journalScanner.
func FuzzFrameEncode(f *testing.F) {
	table := frameEncodeTable()
	for i, s := range table {
		f.Add([]byte(s), []byte(table[(i+3)%len(table)]), []byte(table[(i+7)%len(table)]), table[(i+11)%len(table)])
	}
	f.Add([]byte("a"), []byte("b"), []byte("c"), "")
	f.Fuzz(func(t *testing.T, a, b, c []byte, rid string) {
		if len(rid) > 1<<10 {
			rid = rid[:1<<10]
		}
		checkFrameEncode(t, [][]string{{string(a), string(b), string(c)}, {string(c)}, {string(b), string(a)}}, rid)
	})
}
