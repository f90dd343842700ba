package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"gbkmv/internal/fsx"
)

// What the journal's tests compare against and read through: the frame
// encoder and payload decoder as they were while a frame was json.Marshal of
// a []string and json.Unmarshal back (the references FuzzFrameEncode and
// FuzzJournalScanner hold encodeFrames and journalScanner.decode to), and the
// [][]string and []journalEntry forms the tests are written in, mapped onto
// the span form the package works in.

// journalEntry is one decoded frame: its tokens and the request id it echoes.
type journalEntry struct {
	Tokens    []string
	RequestID string
}

// framedEntry is the object payload of a frame that echoes a request id.
type framedEntry struct {
	RequestID string   `json:"rid"`
	Tokens    []string `json:"tokens"`
}

// marshalFrame is the reference encoder: one record's frame (12-byte header
// + payload) appended to dst, the payload by encoding/json.
func marshalFrame(dst []byte, tokens []string, requestID string) ([]byte, error) {
	var payload []byte
	var err error
	if requestID == "" {
		payload, err = json.Marshal(tokens)
	} else {
		payload, err = json.Marshal(framedEntry{RequestID: requestID, Tokens: tokens})
	}
	if err != nil {
		return dst, err
	}
	if len(payload) > journalMaxEntry {
		return dst, fmt.Errorf("%w: record of %d bytes exceeds the limit (%d)", errEntryTooLarge, len(payload), journalMaxEntry)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return dst, nil
}

// decodeEntry is the reference payload decoder: a bare token array or the
// {"rid", "tokens"} object form, by encoding/json.
func decodeEntry(payload []byte) (journalEntry, error) {
	for _, c := range payload {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			var fe framedEntry
			if err := json.Unmarshal(payload, &fe); err != nil {
				return journalEntry{}, err
			}
			return journalEntry{Tokens: fe.Tokens, RequestID: fe.RequestID}, nil
		default:
			var tokens []string
			if err := json.Unmarshal(payload, &tokens); err != nil {
				return journalEntry{}, err
			}
			return journalEntry{Tokens: tokens}, nil
		}
	}
	return journalEntry{}, errors.New("empty payload")
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

// encodeBatch frames a whole batch.
func encodeBatch(batch [][]string, requestID string) ([]byte, error) {
	return encodeFrames(nil, packTokens(batch), requestID)
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
	_, err := s.scanRuns(func(toks *tokenBatch) {
		entries = append(entries, journalEntry{Tokens: tokensOfRecord(toks, 0), RequestID: s.rid})
		toks.reset()
	}, func(int, int, string) {})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// replayJournal reads every intact entry of the journal at path and returns
// them together with the byte offset up to which the file is valid.
func replayJournal(fsys fsx.FS, path string) (entries []journalEntry, validLen int64, err error) {
	var rids []string
	_, validLen, err = scanJournal(fsys, path, func(toks *tokenBatch) {
		entries = append(entries, journalEntry{Tokens: tokensOfRecord(toks, 0)})
		toks.reset()
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
