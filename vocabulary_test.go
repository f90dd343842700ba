package gbkmv

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"gbkmv/internal/snapfmt"
)

// vocabModel is what a Vocabulary must agree with: a Go map of ids and the
// tokens in id order, the layout the vocabulary had before it was flat.
type vocabModel struct {
	ids  map[string]Element
	toks []string
}

func (m *vocabModel) id(tok string) Element {
	if id, ok := m.ids[tok]; ok {
		return id
	}
	m.ids[tok] = Element(len(m.toks))
	m.toks = append(m.toks, tok)
	return m.ids[tok]
}

// stream is the vocabulary stream of the model's tokens, written field by
// field: magic, count, total bytes, the lengths, the bytes.
func (m *vocabModel) stream() []byte {
	var buf bytes.Buffer
	w := snapfmt.NewWriter(&buf)
	w.Magic(vocabMagic)
	w.Int(len(m.toks))
	w.Int(len(strings.Join(m.toks, "")))
	for _, t := range m.toks {
		w.Int(len(t))
	}
	for _, t := range m.toks {
		w.Write([]byte(t))
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzTokens are the tokens an input byte picks, beside the ones it spells:
// the empty token, invalid UTF-8, one byte, and tokens a chunk of the slab
// long (64 kB) or longer, which take a chunk of their own.
var fuzzTokens = []string{
	"", "\xff", "\xfe\xff", "a", "b", "é", "e1", "e17",
	strings.Repeat("c", 64<<10), strings.Repeat("d", 64<<10+1), strings.Repeat("f", 100<<10),
}

// FuzzVocabulary drives a vocabulary through a sequence the input's bytes
// choose — interning one token or a batch, looking up, reading tokens back,
// saving and loading, and bursts of new tokens that pass a table resize and a
// slab chunk — and holds every step to the model: ids in first-appearance
// order, lookups and tokens equal, Save byte-identical to the model's stream.
// Every string Token handed out must still hold its token at the end, after
// whatever growth followed it.
func FuzzVocabulary(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 3, 0xa4, 2, 0, 3, 1, 4, 5, 40, 3, 7, 4})
	f.Add([]byte{5, 255, 0, 8, 0, 9, 0, 10, 4, 5, 255, 1, 4, 3, 0, 8, 1, 1, 0x0b, 4, 3, 200})
	f.Add([]byte{0, 0, 5, 90, 0, 10, 0, 0, 4, 0, 2, 5, 90, 3, 0, 4})
	f.Add(bytes.Repeat([]byte{5, 255, 1, 4, 0x2b, 3, 9}, 6))
	f.Add([]byte{0, 10, 0, 0, 0, 0, 0, 3, 0, 3, 1, 4, 0, 9, 0, 0, 0, 8, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, m := NewVocabulary(), &vocabModel{ids: map[string]Element{}}
		type handed struct {
			id  Element
			tok string
		}
		var kept []handed
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A token is one of fuzzTokens, or spelled by the next bytes.
		token := func() string {
			b := next()
			if int(b) < len(fuzzTokens) {
				return fuzzTokens[b]
			}
			n := min(int(b)%8, len(data))
			tok := string(data[:n])
			data = data[n:]
			return tok
		}
		fresh := len(m.toks)
		for len(data) > 0 {
			switch op := next() % 6; op {
			case 0:
				tok := token()
				want := m.id(tok)
				got := v.ID(tok)
				if next()%2 == 1 {
					got = v.IDBytes([]byte(tok))
				}
				if got != want {
					t.Fatalf("ID(%.20q) = %d, model %d", tok, got, want)
				}
			case 1:
				// A batch at an offset into a text that has bytes before it.
				text, ends := []byte("pre"), []int(nil)
				var want []Element
				for k := int(next() % 9); k > 0; k-- {
					tok := token()
					text = append(text, tok...)
					ends = append(ends, len(text))
					want = append(want, m.id(tok))
				}
				got := v.AppendIDs([]Element{7}, text, 3, ends)
				if got[0] != 7 || len(got) != 1+len(want) {
					t.Fatalf("AppendIDs = %v, want 7 then %v", got, want)
				}
				for k := range want {
					if got[1+k] != want[k] {
						t.Fatalf("AppendIDs = %v, model %v", got[1:], want)
					}
				}
				known := v.AppendKnown(nil, text, 3, ends)
				if len(known) != len(want) {
					t.Fatalf("AppendKnown after AppendIDs = %v, want %v", known, want)
				}
			case 2:
				tok := token()
				want, wok := m.ids[tok]
				got, ok := v.Lookup(tok)
				if b, bok := v.LookupBytes([]byte(tok)); b != got || bok != ok {
					t.Fatalf("LookupBytes(%.20q) = %d %v, Lookup %d %v", tok, b, bok, got, ok)
				}
				if ok != wok || (ok && got != want) {
					t.Fatalf("Lookup(%.20q) = %d %v, model %d %v", tok, got, ok, want, wok)
				}
			case 3:
				id := Element(next()) % Element(len(m.toks)+2)
				want := ""
				if int(id) < len(m.toks) {
					want = m.toks[id]
				}
				got := v.Token(id)
				if got != want {
					t.Fatalf("Token(%d) = %.20q, model %.20q", id, got, want)
				}
				if int(id) < len(m.toks) {
					kept = append(kept, handed{id, got})
				}
			case 4:
				var buf bytes.Buffer
				if err := v.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), m.stream()) {
					t.Fatalf("Save wrote %d bytes, the model's stream is %d and differs", buf.Len(), len(m.stream()))
				}
				loaded, err := LoadVocabulary(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if loaded.SizeBytes() != v.SizeBytes() {
					t.Fatalf("loaded SizeBytes %d, saved %d", loaded.SizeBytes(), v.SizeBytes())
				}
				v = loaded
			case 5:
				// A burst of new tokens: over a hundred passes a table resize,
				// and tokens of up to 3 kB fill chunks of the slab.
				long := next()%2 == 1
				for k := int(next()) + 1; k > 0; k-- {
					tok := "g" + strconv.Itoa(fresh)
					if long && fresh%7 == 0 {
						tok += strings.Repeat("x", 3000)
					}
					fresh++
					if got, want := v.ID(tok), m.id(tok); got != want {
						t.Fatalf("ID(%.20q) = %d, model %d", tok, got, want)
					}
				}
			}
		}
		if v.Len() != len(m.toks) {
			t.Fatalf("Len = %d, model %d", v.Len(), len(m.toks))
		}
		for id, tok := range m.toks {
			if got := v.Token(Element(id)); got != tok {
				t.Fatalf("Token(%d) = %.20q, model %.20q", id, got, tok)
			}
			if got, ok := v.Lookup(tok); !ok || got != Element(id) {
				t.Fatalf("Lookup(%.20q) = %d %v, model %d", tok, got, ok, id)
			}
		}
		for _, h := range kept {
			if h.tok != m.toks[h.id] {
				t.Fatalf("a string Token(%d) returned changed to %.20q, want %.20q", h.id, h.tok, m.toks[h.id])
			}
		}
		var buf bytes.Buffer
		if err := v.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), m.stream()) {
			t.Fatalf("Save at the end: %v, or bytes differ from the model's stream", err)
		}
	})
}

// TestVocabularyGrowsPastResizeAndChunk: the fuzz seeds above are only useful
// if growth reaches the cases that matter, so this pins that a burst of them
// does — the id table re-laid more than once, the slab into its whole
// chunks, a token opening a chunk with the empty token just before it, past a
// token that took a chunk of its own — and that everything still reads back.
func TestVocabularyGrowsPastResizeAndChunk(t *testing.T) {
	v, m := NewVocabulary(), &vocabModel{ids: map[string]Element{}}
	add := func(tok string) {
		if got, want := v.ID(tok), m.id(tok); got != want {
			t.Fatalf("ID(%.20q) = %d, model %d", tok, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		add("g" + strconv.Itoa(i))
	}
	add(strings.Repeat("c", 64<<10)) // does not fit what is left of the chunk
	// A token longer than a chunk takes one of its own, whose addresses span
	// two slots; the empty token after it ends inside the second, and the
	// token after that opens the next chunk.
	add(strings.Repeat("f", 100<<10))
	add("")
	add("after")
	if len(v.slots) < 4096 || len(v.text.Chunks()) < 9 {
		t.Fatalf("%d slots, %d chunks: growth did not pass a resize and the small chunks", len(v.slots), len(v.text.Chunks()))
	}
	for id, tok := range m.toks {
		if got := v.Token(Element(id)); got != tok {
			t.Fatalf("Token(%d) = %.20q, want %.20q", id, got, tok)
		}
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), m.stream()) {
		t.Fatalf("Save: %v, or bytes differ from the model's stream", err)
	}
}

// TestLoadVocabularyRepeatedToken: a stream whose table holds a token twice
// would give one token two ids; it is corrupt, as it was when the map's size
// told.
func TestLoadVocabularyRepeatedToken(t *testing.T) {
	m := &vocabModel{ids: map[string]Element{}}
	m.id("a")
	m.id("b")
	m.toks = append(m.toks, "a")
	if _, err := LoadVocabulary(bytes.NewReader(m.stream())); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("LoadVocabulary of a repeated token: %v, want a corrupt-snapshot error", err)
	}
	// The table's total must be the lengths' sum: one byte short is corrupt.
	s := m.stream()
	total := len(vocabMagic) + 1 + 1
	if s[total] != 3 {
		t.Fatalf("fixture: total byte %d", s[total])
	}
	s[total] = 2
	if _, err := LoadVocabulary(bytes.NewReader(s)); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("LoadVocabulary of a short table: %v, want a corrupt-snapshot error", err)
	}
}
