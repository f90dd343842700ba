package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unicode/utf8"

	"gbkmv"
)

// tokenBatch is the one shape inserted records have in this package between
// the socket (or the journal, or the leader's stream) and Engine.AddBatch:
// every token's bytes back to back, the end offset of each token, the token
// count at the end of each record. A bodyScanner fills it from an insert
// body, Collection.Insert from a [][]string, a journalScanner from frames;
// encodeFrames journals it and recordSlab interns it.
type tokenBatch struct {
	slab    []byte
	tokEnds []int
	recEnds []int
}

func (b *tokenBatch) reset() { b.slab, b.tokEnds, b.recEnds = b.slab[:0], b.tokEnds[:0], b.recEnds[:0] }

// token appends a token to the open record, endRecord closes it, dropOpen
// forgets its tokens.
func (b *tokenBatch) token(tok []byte) {
	b.slab = append(b.slab, tok...)
	b.tokEnds = append(b.tokEnds, len(b.slab))
}

func (b *tokenBatch) endRecord() { b.recEnds = append(b.recEnds, len(b.tokEnds)) }

func (b *tokenBatch) dropOpen() {
	b.tokEnds = b.tokEnds[:endBefore(b.recEnds, len(b.recEnds))]
	b.slab = b.slab[:endBefore(b.tokEnds, len(b.tokEnds))]
}

// endBefore is where element i of a run of ends starts.
func endBefore(ends []int, i int) int {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// span returns the indexes [from, to) of record i's tokens; tok, token k.
func (b *tokenBatch) span(i int) (from, to int) { return endBefore(b.recEnds, i), b.recEnds[i] }

func (b *tokenBatch) tok(k int) []byte { return b.slab[endBefore(b.tokEnds, k):b.tokEnds[k]] }

// appendCoerced appends s as encoding/json hands it back from a frame: each
// byte that is not UTF-8 becomes its own U+FFFD (ranging over a string
// decodes it so). What the Go API inserts is thereby what replay and a
// follower intern and remember.
func appendCoerced(dst []byte, s string) []byte {
	for _, r := range s {
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// encodeFrames appends the journal frame (12-byte header + payload) of each
// of b's records to dst, echoing rid (when non-empty) into every payload:
// byte for byte what json.Marshal made of a []string, or of {rid, tokens}.
func encodeFrames(dst []byte, b *tokenBatch, rid string) ([]byte, error) {
	for i := range b.recEnds {
		hdr := len(dst)
		dst = append(dst, make([]byte, 12)...)
		if rid != "" {
			dst = append(appendQuoted(append(dst, `{"rid":`...), rid), `,"tokens":`...)
		}
		dst = append(dst, '[')
		from, to := b.span(i)
		for k := from; k < to; k++ {
			if k > from {
				dst = append(dst, ',')
			}
			dst = appendQuoted(dst, b.tok(k))
		}
		dst = append(dst, ']')
		if rid != "" {
			dst = append(dst, '}')
		}
		payload := dst[hdr+12:]
		if len(payload) > journalMaxEntry {
			// Replay hard-errors on oversized entries; writing one would make
			// the collection unloadable, so refuse the insert instead.
			return dst[:hdr], fmt.Errorf("%w: record of %d bytes exceeds the limit (%d)", errEntryTooLarge, len(payload), journalMaxEntry)
		}
		binary.BigEndian.PutUint32(dst[hdr:], uint32(len(payload)))
		binary.BigEndian.PutUint32(dst[hdr+4:], crc32.ChecksumIEEE(dst[hdr:hdr+4]))
		binary.BigEndian.PutUint32(dst[hdr+8:], crc32.ChecksumIEEE(payload))
	}
	return dst, nil
}

// recordSlab interns token spans into sorted, duplicate-free records cut from
// one array, reused from batch to batch: an Engine keeps nothing of what
// AddBatch is handed, and a collection's applies are serial. A full array is
// followed by one of twice the size — a journal replays as one batch, which
// append's 1.25x would copy five times over.
type recordSlab struct {
	elems []gbkmv.Element
	recs  []gbkmv.Record
}

// reset empties the slab, letting go of what an outsized batch grew.
func (rs *recordSlab) reset() {
	if cap(rs.elems) > scanKeepBytes/8 {
		rs.elems = nil
	}
	clear(rs.recs)
	rs.elems, rs.recs = rs.elems[:0], rs.recs[:0]
}

// add interns record i of b under one lock of the vocabulary (two where some
// tokens are new), allocating ids for its new tokens in token order — the
// order replay and a follower reproduce.
func (rs *recordSlab) add(voc *gbkmv.Vocabulary, b *tokenBatch, i int) {
	from, to := b.span(i)
	if cap(rs.elems)-len(rs.elems) < to-from {
		rs.elems = make([]gbkmv.Element, 0, max(to-from, 2*cap(rs.elems)))
	}
	start := len(rs.elems)
	rs.elems = voc.AppendIDs(rs.elems, b.slab, endBefore(b.tokEnds, from), b.tokEnds[from:to])
	slices.Sort(rs.elems[start:])
	rs.elems = rs.elems[:start+len(slices.Compact(rs.elems[start:]))]
	rs.recs = append(rs.recs, rs.elems[start:len(rs.elems):len(rs.elems)])
}
