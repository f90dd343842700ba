package gbkmv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"unicode"

	"gbkmv/internal/snapfmt"
)

// Corpus is a record collection in the coding the snapshots store it in
// (about 1.3 bytes an element occurrence for vocabulary ids, against 8 in a
// Record): what a RecordBuilder produces and what NewEngineFromCorpus builds
// from, so that a bulk build never holds its records as slices.
type Corpus struct {
	recs snapfmt.PackedRecords
}

// packCorpus codes records into a corpus. The records are not retained.
func packCorpus(records []Record) (*Corpus, error) {
	recs, err := snapfmt.PackRecords(records, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("gbkmv: %w", err)
	}
	return &Corpus{recs: recs}, nil
}

// Len returns the number of records.
func (c *Corpus) Len() int { return c.recs.Len() }

// Elements returns the number of element occurrences over all records.
func (c *Corpus) Elements() int { return c.recs.Elements() }

// Record returns a decoded copy of record i, the caller's to keep.
func (c *Corpus) Record(i int) Record { return c.recs.Record(i) }

// Records returns every record decoded, each a window of one element slab.
func (c *Corpus) Records() []Record { return c.recs.All() }

// take hands the store to an engine and leaves the corpus empty: whoever still
// holds the corpus no longer holds the records.
func (c *Corpus) take() snapfmt.PackedRecords {
	recs := c.recs
	c.recs = snapfmt.PackedRecords{}
	return recs
}

// RecordBuilder turns a stream of token bytes into a Corpus without an
// intermediate string per token or a slice per record: tokens intern through
// the vocabulary from their bytes, the open record is sorted and deduplicated
// in one reused scratch and coded from there onto the corpus. It is the
// ingest path of ReadRecords and of gbkmvd's bulk build; a builder is not safe
// for concurrent use.
type RecordBuilder struct {
	voc  *Vocabulary
	open []Element // the record being read, in token order
	recs snapfmt.PackedRecords
}

// NewRecordBuilder returns a builder interning through voc.
func NewRecordBuilder(voc *Vocabulary) *RecordBuilder {
	return &RecordBuilder{voc: voc}
}

// Token adds a token to the open record. The bytes are not retained.
func (b *RecordBuilder) Token(token []byte) {
	b.open = append(b.open, b.voc.IDBytes(token))
}

// EndRecord closes the open record, appends it to the corpus and returns its
// number of distinct elements; a record without tokens is appended empty. It
// fails, the record dropped, once the corpus holds all its 32-bit offsets can
// address (4 GB coded).
func (b *RecordBuilder) EndRecord() (int, error) {
	slices.Sort(b.open)
	open := slices.Compact(b.open)
	b.open = b.open[:0]
	if err := b.recs.Append(open); err != nil {
		return 0, fmt.Errorf("gbkmv: %w", err)
	}
	return len(open), nil
}

// Corpus returns the records closed so far and starts the builder on an empty
// corpus.
func (b *RecordBuilder) Corpus() *Corpus {
	c := &Corpus{recs: b.recs}
	b.recs = snapfmt.PackedRecords{}
	return c
}

// ReadLines appends one record per non-blank line of r, the format of
// ReadRecords, without keeping the text. keep, when not nil, sees each such
// line, trimmed, before the line buffer moves on.
func (b *RecordBuilder) ReadLines(r io.Reader, keep func(line []byte)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if keep != nil {
			keep(line)
		}
		for len(line) > 0 {
			end := bytes.IndexFunc(line, unicode.IsSpace)
			if end < 0 {
				end = len(line)
			}
			b.Token(line[:end])
			line = bytes.TrimLeftFunc(line[end:], unicode.IsSpace)
		}
		if _, err := b.EndRecord(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("gbkmv: reading records: %w", err)
	}
	return nil
}

// ReadRecords parses a line-oriented token corpus: one record per line,
// whitespace-separated tokens, blank lines skipped. It returns the records
// (tokens interned through voc) and the raw lines for display. This is the
// input format of the cmd/gbkmv tool.
func ReadRecords(r io.Reader, voc *Vocabulary) (records []Record, lines []string, err error) {
	if voc == nil {
		voc = NewVocabulary()
	}
	b := NewRecordBuilder(voc)
	err = b.ReadLines(r, func(line []byte) { lines = append(lines, string(line)) })
	if err != nil {
		return nil, nil, err
	}
	return b.Corpus().Records(), lines, nil
}
