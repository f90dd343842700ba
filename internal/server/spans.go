package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unicode/utf8"

	"gbkmv"
)

// tokenBatch is the one shape inserted records have in this package between
// the socket and their journal frames: every token's bytes back to back, the
// end offset of each token, the token count at the end of each record. A
// bodyScanner fills it from an insert body, Collection.Insert from a
// [][]string; encodeFrames codes it.
type tokenBatch struct {
	slab    []byte
	tokEnds []int
	recEnds []int
}

func (b *tokenBatch) reset() { b.slab, b.tokEnds, b.recEnds = b.slab[:0], b.tokEnds[:0], b.recEnds[:0] }

// token appends a token to the open record, endRecord closes it.
func (b *tokenBatch) token(tok []byte) {
	b.slab = append(b.slab, tok...)
	b.tokEnds = append(b.tokEnds, len(b.slab))
}

func (b *tokenBatch) endRecord() { b.recEnds = append(b.recEnds, len(b.tokEnds)) }

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

// appendCoerced appends s as an insert body's JSON string delivers it: each
// byte that is not UTF-8 becomes its own U+FFFD (ranging over a string
// decodes it so). What the Go API inserts is thereby what the same insert
// over HTTP interns and remembers.
func appendCoerced(dst []byte, s string) []byte {
	for _, r := range s {
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// A frame's payload codes one record against the vocabulary as it stood
// when the frame was encoded:
//
//	byte     format: frameIDs, or frameIDsRid when a request id follows
//	uvarint  the request id's length, then its bytes (frameIDsRid only)
//	uvarint  n, how many of the record's tokens the vocabulary held, then
//	         their ids ascending: the first, then n-1 gaps, each at least 1
//	         (the snapshot's record coding, internal/snapfmt)
//	         the record's other tokens, each a uvarint length and its bytes,
//	         in record order (a repeated one again), to the end of the payload
//
// Every apply of a frame — the leader's, replay's, a follower's — finds its
// ids already interned: the vocabulary grows only when frames apply, in
// journal order, and a frame is applied after it is appended, which is after
// it was encoded; so an id known at encode time came from the snapshot the
// journal follows or from an earlier frame. The frame's other tokens are
// interned at apply, in order — or found, where a batch applied in between
// interned them first — and so take on every side the ids they took on the
// leader. Payloads of the JSON form earlier builds wrote open with '[' or
// '{', neither of them a format byte.
const (
	frameIDs    = 1
	frameIDsRid = 2
)

// errJSONFrame marks a frame of the journal format before frames carried
// vocabulary ids: this build reads only its own, so a collection whose
// journal holds one is rebuilt, as one whose snapshot is of another format.
var errJSONFrame = fmt.Errorf("%w: a JSON token frame, the journal format of builds before frames carried vocabulary ids", gbkmv.ErrSnapshotFormat)

// literal marks, among the ids encodeFrames looked up, a token the
// vocabulary does not hold: no id is that large.
const literal = ^gbkmv.Element(0)

// encodeFrames appends the journal frame (12-byte header + payload) of each
// of b's records to dst, coded against voc as it stands and echoing rid (when
// non-empty) into every payload. scratch is reused for the ids looked up.
func encodeFrames(dst []byte, voc *gbkmv.Vocabulary, b *tokenBatch, rid string, scratch *[]gbkmv.Element) ([]byte, error) {
	for i := range b.recEnds {
		from, to := b.span(i)
		// The lookups, a token each (literal where voc lacks it), then a copy
		// of them sorted and compacted: the known ids, a literal last.
		ids := (*scratch)[:0]
		for k := from; k < to; k++ {
			id, ok := voc.LookupBytes(b.tok(k))
			if !ok {
				id = literal
			}
			ids = append(ids, id)
		}
		ids = append(ids, ids...)
		*scratch = ids
		known := ids[to-from:]
		slices.Sort(known)
		known = slices.Compact(known)
		if len(known) > 0 && known[len(known)-1] == literal {
			known = known[:len(known)-1]
		}
		hdr := len(dst)
		dst = append(dst, make([]byte, 12)...)
		if rid != "" {
			dst = append(binary.AppendUvarint(append(dst, frameIDsRid), uint64(len(rid))), rid...)
		} else {
			dst = append(dst, frameIDs)
		}
		dst = binary.AppendUvarint(dst, uint64(len(known)))
		prev := gbkmv.Element(0)
		for _, id := range known {
			dst, prev = binary.AppendUvarint(dst, uint64(id-prev)), id
		}
		for k := from; k < to; k++ {
			if ids[k-from] == literal {
				tok := b.tok(k)
				dst = append(binary.AppendUvarint(dst, uint64(len(tok))), tok...)
			}
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

// frame is one decoded payload: the request id it echoes, the ids of the
// tokens the vocabulary held when it was encoded, ascending, and the other
// tokens' bytes back to back with the end of each.
type frame struct {
	rid  string
	ids  []gbkmv.Element
	slab []byte
	ends []int
}

// decodeFrame reads payload into f, reusing f's arrays. It checks what the
// payload alone can say — the format, that every length fits what follows
// it, that the ids ascend — and allocates only for what the payload holds;
// whether the ids are in the vocabulary is for the apply to say (within).
func decodeFrame(payload []byte, f *frame) error {
	f.ids, f.slab, f.ends = f.ids[:0], f.slab[:0], f.ends[:0]
	if len(payload) == 0 {
		return errors.New("empty payload")
	}
	p := payload[1:]
	switch payload[0] {
	case frameIDs:
		f.rid = ""
	case frameIDsRid:
		rid, rest, err := lengthPrefixed(p)
		if err != nil {
			return fmt.Errorf("request id: %v", err)
		}
		if string(rid) != f.rid {
			f.rid = string(rid)
		}
		p = rest
	case '[', '{':
		return errJSONFrame
	default:
		return fmt.Errorf("unknown frame format %#02x", payload[0])
	}
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return errors.New("truncated id count")
	}
	if p = p[w:]; n > uint64(len(p)) {
		return fmt.Errorf("%d ids declared in %d bytes", n, len(p))
	}
	var id uint64
	for j := uint64(0); j < n; j++ {
		d, w := binary.Uvarint(p)
		switch {
		case w <= 0:
			return errors.New("truncated id")
		case j > 0 && d == 0:
			return fmt.Errorf("id %d repeated: ids must ascend", id)
		case d > math.MaxUint32-id:
			return errors.New("id past 2^32")
		}
		id += d
		f.ids = append(f.ids, gbkmv.Element(id))
		p = p[w:]
	}
	for len(p) > 0 {
		tok, rest, err := lengthPrefixed(p)
		if err != nil {
			return fmt.Errorf("token %d: %v", len(f.ends), err)
		}
		f.slab = append(f.slab, tok...)
		f.ends = append(f.ends, len(f.slab))
		p = rest
	}
	return nil
}

// lengthPrefixed splits the uvarint-length-prefixed bytes off the head of p.
func lengthPrefixed(p []byte) (b, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, nil, errors.New("truncated length")
	}
	if p = p[w:]; n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%d bytes declared, %d left", n, len(p))
	}
	return p[:n], p[n:], nil
}

// within reports an id of f that a vocabulary of n tokens does not hold: a
// frame of another collection's journal, or one whose ids a corrupt snapshot
// no longer covers.
func (f *frame) within(n int) error {
	if k := len(f.ids); k > 0 && f.ids[k-1] >= gbkmv.Element(n) {
		return fmt.Errorf("id %d past the vocabulary's %d tokens", f.ids[k-1], n)
	}
	return nil
}

// recordSlab turns frames into sorted, duplicate-free records cut from one
// array, reused from batch to batch: an Engine keeps nothing of what AddBatch
// is handed, and a collection's applies are serial. A full array is followed
// by one of twice the size — a journal replays as one batch, which append's
// 1.25x would copy five times over.
type recordSlab struct {
	elems []gbkmv.Element
	recs  []gbkmv.Record
	frame frame // addFrames' decoded frame
}

// reset empties the slab, letting go of what an outsized batch grew.
func (rs *recordSlab) reset() {
	if cap(rs.elems) > scanKeepBytes/8 {
		rs.elems = nil
	}
	clear(rs.recs)
	rs.elems, rs.recs = rs.elems[:0], rs.recs[:0]
}

// add makes f a record: its ids, checked against voc, and its other tokens
// interned under one lock of the vocabulary (two where some are new), new
// ids allocated in token order. Leader, replay and follower all apply a frame
// here, which is what makes their vocabularies and records the same.
func (rs *recordSlab) add(voc *gbkmv.Vocabulary, f *frame) error {
	if err := f.within(voc.Len()); err != nil {
		return err
	}
	if n := len(f.ids) + len(f.ends); cap(rs.elems)-len(rs.elems) < n {
		rs.elems = make([]gbkmv.Element, 0, max(n, 2*cap(rs.elems)))
	}
	start := len(rs.elems)
	rs.elems = append(rs.elems, f.ids...)
	if len(f.ends) > 0 {
		rs.elems = voc.AppendIDs(rs.elems, f.slab, 0, f.ends)
		slices.Sort(rs.elems[start:])
		rs.elems = rs.elems[:start+len(slices.Compact(rs.elems[start:]))]
	}
	rs.recs = append(rs.recs, rs.elems[start:len(rs.elems):len(rs.elems)])
	return nil
}

// addFrames adds every frame of a stream the journal scanner passed or
// encodeFrames wrote: a commit batch's.
func (rs *recordSlab) addFrames(voc *gbkmv.Vocabulary, frames []byte) error {
	for len(frames) > 0 {
		n := 12 + int(binary.BigEndian.Uint32(frames))
		if err := decodeFrame(frames[12:n], &rs.frame); err != nil {
			return err
		}
		if err := rs.add(voc, &rs.frame); err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
}

// countFrames is the number of frames in a stream encodeFrames wrote or the
// journal scanner passed.
func countFrames(frames []byte) (n int) {
	for ; len(frames) > 0; n++ {
		frames = frames[12+int(binary.BigEndian.Uint32(frames)):]
	}
	return n
}

// pendingVocab is a vocabulary as applying a replicated chunk will grow it,
// frame by frame, without interning anything into it: the check, before a
// follower appends a chunk, that every frame of it applies.
type pendingVocab struct {
	voc   *gbkmv.Vocabulary
	fresh *gbkmv.Vocabulary // the new tokens admitted so far; nil while there are none
}

func newPendingVocab(voc *gbkmv.Vocabulary) *pendingVocab { return &pendingVocab{voc: voc} }

// len is how many tokens the vocabulary will hold once the frames admitted
// so far apply.
func (p *pendingVocab) len() int {
	if p.fresh == nil {
		return p.voc.Len()
	}
	return p.voc.Len() + p.fresh.Len()
}

// admit checks f against the vocabulary as the frames admitted before it
// leave it, and notes the tokens f's apply will intern.
func (p *pendingVocab) admit(f *frame) error {
	if err := f.within(p.len()); err != nil {
		return err
	}
	for k, end := range f.ends {
		tok := f.slab[endBefore(f.ends, k):end]
		if _, ok := p.voc.LookupBytes(tok); !ok {
			if p.fresh == nil {
				p.fresh = gbkmv.NewVocabulary()
			}
			p.fresh.IDBytes(tok)
		}
	}
	return nil
}
