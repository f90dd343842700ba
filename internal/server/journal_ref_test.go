package server

import (
	"encoding/binary"
	"hash/crc32"
	"slices"

	"gbkmv"
	"gbkmv/internal/fsx"
)

// What the journal's tests read and write through: the [][]string and
// []journalEntry forms the tests are written in, mapped onto the span form
// the package works in and onto frames.

// journalEntry is one decoded frame: the ids it carries (nil for none), its
// other tokens and the request id it echoes. A frame encoded against an empty
// vocabulary carries every token of its record, in order.
type journalEntry struct {
	IDs       []gbkmv.Element
	Tokens    []string
	RequestID string
}

// entryOf copies a decoded frame out of the scanner's arrays.
func entryOf(f *frame) journalEntry {
	e := journalEntry{Tokens: make([]string, len(f.ends)), RequestID: f.rid}
	if len(f.ids) > 0 {
		e.IDs = slices.Clone(f.ids)
	}
	for k, end := range f.ends {
		e.Tokens[k] = string(f.slab[endBefore(f.ends, k):end])
	}
	return e
}

// framePayload is the reference coder: e's payload, written field by field
// from the layout spans.go documents (e.IDs ascending, as a decoded frame
// holds them).
func framePayload(e journalEntry) []byte {
	p := []byte{frameIDs}
	if e.RequestID != "" {
		p = append(binary.AppendUvarint([]byte{frameIDsRid}, uint64(len(e.RequestID))), e.RequestID...)
	}
	p = binary.AppendUvarint(p, uint64(len(e.IDs)))
	prev := gbkmv.Element(0)
	for _, id := range e.IDs {
		p, prev = binary.AppendUvarint(p, uint64(id-prev)), id
	}
	for _, tok := range e.Tokens {
		p = append(binary.AppendUvarint(p, uint64(len(tok))), tok...)
	}
	return p
}

// frameOf is payload under its 12-byte header, both checksums valid.
func frameOf(payload []byte) []byte {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// packTokens is a batch in the span form, its tokens byte for byte.
func packTokens(batch [][]string) *tokenBatch {
	b := &tokenBatch{}
	for _, tokens := range batch {
		for _, tok := range tokens {
			b.token([]byte(tok))
		}
		b.endRecord()
	}
	return b
}

// tokensOfRecord is record i of b as strings.
func tokensOfRecord(b *tokenBatch, i int) []string {
	from, to := b.span(i)
	tokens := make([]string, 0, to-from)
	for k := from; k < to; k++ {
		tokens = append(tokens, string(b.tok(k)))
	}
	return tokens
}

// encodeBatch frames a whole batch against an empty vocabulary: every token
// travels as its bytes.
func encodeBatch(batch [][]string, requestID string) ([]byte, error) {
	var ids []gbkmv.Element
	return encodeFrames(nil, gbkmv.NewVocabulary(), packTokens(batch), requestID, &ids)
}

// AppendBatch frames and buffers a whole batch as one write.
func (j *journalWriter) AppendBatch(batch [][]string, requestID string) error {
	frames, err := encodeBatch(batch, requestID)
	if err != nil {
		return err
	}
	return j.appendFrames(frames)
}

// Sync flushes buffered entries and fsyncs the file.
func (j *journalWriter) Sync() error {
	if err := j.Flush(); err != nil {
		return err
	}
	return j.SyncFile()
}

// scanAll drains the scanner, returning every intact entry. A clean end or a
// torn trailing frame both end the scan normally; corruption is returned.
func (s *journalScanner) scanAll() ([]journalEntry, error) {
	var entries []journalEntry
	_, err := s.scanRuns(func(f *frame) error {
		entries = append(entries, entryOf(f))
		return nil
	}, func(int, int, string) {})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// replayJournal reads every intact entry of the journal at path — their
// request ids from the runs replay rebuilds its window from — and returns
// them together with the byte offset up to which the file is valid.
func replayJournal(fsys fsx.FS, path string) (entries []journalEntry, validLen int64, err error) {
	var rids []string
	_, validLen, err = scanJournal(fsys, path, func(f *frame) error {
		e := entryOf(f)
		e.RequestID = ""
		entries = append(entries, e)
		return nil
	}, func(from, to int, rid string) {
		for ; from < to; from++ {
			rids = append(rids, rid)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for i := range entries {
		entries[i].RequestID = rids[i]
	}
	return entries, validLen, nil
}
