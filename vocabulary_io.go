package gbkmv

import (
	"fmt"
	"io"

	"gbkmv/internal/snapfmt"
)

// A vocabulary stream is the magic and format version, then the tokens as one
// string table (count, total bytes, lengths, bytes). Only the tokens are
// stored; the id table is rebuilt on load (ids are the table positions).
const vocabMagic = "GBKMVVOC"

// Save serializes the vocabulary. Ids are positional, so an index saved
// together with the vocabulary it was built through round-trips exactly.
func (v *Vocabulary) Save(w io.Writer) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	sw := snapfmt.NewWriter(w)
	sw.Magic(vocabMagic)
	// The slab's chunks hold the tokens back to back: what a chunk leaves
	// empty at its end lies past its length.
	sw.StringTable(v.n(), func(i int) int { return len(v.token(uint32(i))) }, v.text.Chunks())
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("gbkmv: writing vocabulary: %w", err)
	}
	return nil
}

// LoadVocabulary reads a vocabulary written by Save: the tokens' bytes become
// the slab's one bulk chunk, and the id table is laid from them. A stream
// that is not a vocabulary of the current format is ErrSnapshotFormat.
func LoadVocabulary(r io.Reader) (*Vocabulary, error) {
	sr := snapfmt.NewReader(r)
	sr.Magic(vocabMagic)
	offsets, text := sr.StringTable()
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading vocabulary: %w", err)
	}
	v := NewVocabulary()
	v.offsets = offsets
	v.text.Adopt(text)
	if !v.lay(tableSize(v.n())) {
		return nil, fmt.Errorf("gbkmv: reading vocabulary: %w: a token appears twice", snapfmt.ErrCorrupt)
	}
	return v, nil
}
