package gbkmv

import (
	"fmt"
	"io"

	"gbkmv/internal/snapfmt"
)

// A vocabulary stream is the magic and format version, then the token table
// as one string section (count, total bytes, lengths, bytes). Only the table
// is stored; the id map is rebuilt on load (ids are the table positions).
const vocabMagic = "GBKMVVOC"

// Save serializes the vocabulary. Ids are positional, so an index saved
// together with the vocabulary it was built through round-trips exactly.
func (v *Vocabulary) Save(w io.Writer) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	sw := snapfmt.NewWriter(w)
	sw.Magic(vocabMagic)
	sw.Strings(v.toks)
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("gbkmv: writing vocabulary: %w", err)
	}
	return nil
}

// LoadVocabulary reads a vocabulary written by Save: the tokens are windows
// of one string slab. A stream that is not a vocabulary of the current
// format is ErrSnapshotFormat.
func LoadVocabulary(r io.Reader) (*Vocabulary, error) {
	sr := snapfmt.NewReader(r)
	sr.Magic(vocabMagic)
	toks := sr.Strings()
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading vocabulary: %w", err)
	}
	v := &Vocabulary{ids: make(map[string]Element, len(toks)), toks: toks}
	for i, t := range toks {
		v.ids[t] = Element(i)
	}
	if len(v.ids) != len(toks) {
		return nil, fmt.Errorf("gbkmv: reading vocabulary: %w: a token appears twice", snapfmt.ErrCorrupt)
	}
	return v, nil
}
