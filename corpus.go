package gbkmv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"unicode"
)

// RecordBuilder turns a stream of token bytes into records without an
// intermediate string per token or a slice per record: tokens intern
// through the vocabulary from their bytes, the open record is sorted and
// deduplicated in one reused scratch, and finished records are carved out of
// chunked element arenas. It is the ingest path of ReadRecords and of
// gbkmvd's bulk build; a builder is not safe for concurrent use.
type RecordBuilder struct {
	voc     *Vocabulary
	open    []Element // the record being read, in token order
	arena   []Element // unused tail of the current chunk
	chunk   int       // size of the next chunk
	records []Record
}

// Arena chunks double from arenaMinChunk, so a three-record collection pins
// a few kB, up to arenaMaxChunk elements (512 kB), which bounds the unused
// tail a large collection carries to under one record per chunk.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 64 << 10
)

// NewRecordBuilder returns a builder interning through voc.
func NewRecordBuilder(voc *Vocabulary) *RecordBuilder {
	return &RecordBuilder{voc: voc, chunk: arenaMinChunk}
}

// Token adds a token to the open record. The bytes are not retained.
func (b *RecordBuilder) Token(token []byte) {
	b.open = append(b.open, b.voc.IDBytes(token))
}

// EndRecord closes the open record, appends it to Records and returns its
// number of distinct elements; a record without tokens is appended empty.
func (b *RecordBuilder) EndRecord() int {
	slices.Sort(b.open)
	open := slices.Compact(b.open)
	if len(open) > len(b.arena) {
		b.arena = make([]Element, max(b.chunk, len(open)))
		b.chunk = min(2*b.chunk, arenaMaxChunk)
	}
	n := copy(b.arena, open)
	// The capacity stops at the record, so an append to it cannot run
	// into its neighbour in the chunk.
	b.records = append(b.records, Record(b.arena[:n:n]))
	b.arena = b.arena[n:]
	b.open = b.open[:0]
	return n
}

// Records returns the records closed so far.
func (b *RecordBuilder) Records() []Record { return b.records }

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
		b.EndRecord()
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
	return b.Records(), lines, nil
}
