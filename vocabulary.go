package gbkmv

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"unsafe"

	"gbkmv/internal/chunked"
	"gbkmv/internal/dataset"
)

// Vocabulary maps string tokens (words, q-grams, column values, ...) to
// dense element ids, in the order the tokens first appear, so that text-like
// data can be sketched. It is safe for concurrent use.
//
// It holds no string and no Go map (DESIGN.md "Vocabulary"): the tokens'
// bytes back to back in one chunked slab, one 32-bit offset an id, and an
// open-addressed table of ids probed from a seeded hash of a token's bytes —
// about 16 bytes a short token, its text included. The 32-bit offsets bound
// the tokens' text to under 4 GB; interning past that panics.
type Vocabulary struct {
	mu sync.RWMutex
	// text holds every token's bytes in id order. A byte written there is
	// never rewritten, and a chunk of it never moves or goes: Token and
	// Tokens hand out strings that alias it.
	text chunked.Store[byte]
	// offsets holds Len()+1 addresses of text: token i is
	// text.Run(offsets[i], offsets[i+1]). It is a flat slice, so that a
	// probe's byte comparison finds a token's bytes with one address
	// computation, the slab's; it doubles as it fills, so that its copies
	// come to no more than it holds.
	offsets []uint32
	// slots is the id table, linearly probed, 2^s slots at most three
	// quarters full: 0 where no token is, else the id + 1 of a token its hash
	// probes to in the low s bits — fewer than the slots, so they hold it —
	// and the top 32 - s bits of that hash above them, a tag that a probe
	// compares before it compares token bytes.
	slots []uint32
	// seed keys the hash: the tokens come from request bodies, and a fixed
	// hash could be flooded into one long probe run.
	seed maphash.Seed
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	v := &Vocabulary{seed: maphash.MakeSeed()}
	v.offsets = append(v.offsets, 0)
	v.lay(tableSize(0))
	return v
}

// tableSize is the slot count of the table for n tokens: the smallest power
// of two, 8 or more, that n fill at most three quarters of. The table grows
// by doubling at the same point, so a vocabulary grown token by token and one
// loaded with the same tokens have the same size.
func tableSize(n int) int {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// bytesOf views s as bytes, for the lookups that only read it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// ID returns the element id of the token, allocating a new id on first
// sight. The vocabulary keeps its own copy of a new token, so it never pins
// a larger string the caller sliced the token out of (a line, a request
// body).
func (v *Vocabulary) ID(token string) Element { return v.IDBytes(bytesOf(token)) }

// IDBytes is ID for a token still held as bytes (a scanner's window, a line
// buffer): a known token allocates nothing, a new one its bytes in the slab.
func (v *Vocabulary) IDBytes(token []byte) Element {
	h := v.hash(token)
	v.mu.RLock()
	id, ok := v.lookup(token, h)
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.intern(token, h)
}

// AppendIDs appends to dst, in token order, the ids of the tokens
// text[start:ends[0]], text[ends[0]:ends[1]], …, allocating ids for the new
// ones: what IDBytes returns for each token in turn, under one read lock and,
// if any token is new, one write lock, in which the new tokens take ids in
// token order. A repeated token appears as often as it is repeated.
func (v *Vocabulary) AppendIDs(dst []Element, text []byte, start int, ends []int) []Element {
	base, misses, from := len(dst), 0, start
	v.mu.RLock()
	for _, end := range ends {
		tok := text[from:end]
		id, ok := v.lookup(tok, v.hash(tok))
		if !ok {
			id, misses = missing, misses+1
		}
		dst, from = append(dst, id), end
	}
	v.mu.RUnlock()
	if misses > 0 {
		internMissing(v, dst[base:], func(k int) []byte {
			if k == 0 {
				return text[start:ends[0]]
			}
			return text[ends[k-1]:ends[k]]
		})
	}
	return dst
}

// AppendKnown is AppendIDs without allocating: it appends the ids of the
// tokens already known, in token order, skips the others, and takes one read
// lock.
func (v *Vocabulary) AppendKnown(dst []Element, text []byte, start int, ends []int) []Element {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, end := range ends {
		tok := text[start:end]
		if id, ok := v.lookup(tok, v.hash(tok)); ok {
			dst = append(dst, id)
		}
		start = end
	}
	return dst
}

// missing marks, in the ids a read pass resolved, a token it did not find: no
// id is that large, nor ^uint32(0), its mark among 32-bit ids.
const missing = ^Element(0)

// resolve sets ids[k] to the id of the k-th token of text — text[ends[k-1]:
// ends[k]], the first from 0 — or to ^uint32(0) where the vocabulary does
// not hold it, under one read lock, and returns how many it did not find.
func (v *Vocabulary) resolve(ids []uint32, text []byte, ends []uint32) (misses int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	from := uint32(0)
	for k, end := range ends {
		tok := text[from:end]
		id, ok := v.lookup(tok, v.hash(tok))
		if !ok {
			id, misses = missing, misses+1
		}
		ids[k], from = uint32(id), end
	}
	return misses
}

// internMissing interns the tokens marked missing in ids — tok(k) is the
// token of ids[k] — under one write lock and in order, and puts their ids in
// their place.
func internMissing[E uint32 | Element](v *Vocabulary, ids []E, tok func(k int) []byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, id := range ids {
		if id == ^E(0) {
			t := tok(k)
			ids[k] = E(v.intern(t, v.hash(t)))
		}
	}
}

func (v *Vocabulary) hash(tok []byte) uint64 { return maphash.Bytes(v.seed, tok) }

// n is Len for a caller that holds the lock.
func (v *Vocabulary) n() int { return len(v.offsets) - 1 }

// token returns the bytes of token id, a window of the slab. The caller holds
// the lock.
func (v *Vocabulary) token(id uint32) []byte { return v.text.Run(v.offsets[id], v.offsets[id+1]) }

// probe walks the probe sequence of tok, whose hash is h: it returns the slot
// holding tok, found, or the free slot that ends the walk. The caller holds
// the lock.
func (v *Vocabulary) probe(tok []byte, h uint64) (slot uint64, found bool) {
	mask, tag := uint64(len(v.slots)-1), v.tag(h)
	for slot = h & mask; v.slots[slot] != 0; slot = (slot + 1) & mask {
		if s := v.slots[slot]; s&^uint32(mask) == tag && string(v.token(s&uint32(mask)-1)) == string(tok) {
			return slot, true
		}
	}
	return slot, false
}

// tag returns the bits of h that a slot keeps above its id: the top ones,
// which the slot number, taken from the bottom ones, says nothing of.
func (v *Vocabulary) tag(h uint64) uint32 { return uint32(h>>32) &^ uint32(len(v.slots)-1) }

// lookup returns the id of tok, whose hash is h, if it is known. The caller
// holds the lock.
func (v *Vocabulary) lookup(tok []byte, h uint64) (Element, bool) {
	slot, ok := v.probe(tok, h)
	if !ok {
		return 0, false
	}
	return v.id(slot), true
}

// id returns the id a full slot holds.
func (v *Vocabulary) id(slot uint64) Element {
	return Element(v.slots[slot]&uint32(len(v.slots)-1)) - 1
}

// intern returns the id of tok, whose hash is h, giving it the next id if it
// is new: ids follow first appearance. The caller holds the write lock.
func (v *Vocabulary) intern(tok []byte, h uint64) Element {
	slot, ok := v.probe(tok, h)
	if ok {
		return v.id(slot)
	}
	id := v.n()
	if 4*(id+1) > 3*len(v.slots) {
		v.lay(2 * len(v.slots))
		slot, _ = v.probe(tok, h)
	}
	v.push(tok)
	v.slots[slot] = v.tag(h) | uint32(id+1)
	return Element(id)
}

// push appends tok's bytes to the slab and its end to the offsets. The caller
// holds the write lock.
func (v *Vocabulary) push(tok []byte) {
	last := len(v.offsets) - 1
	end := v.offsets[last]
	if len(v.offsets) == cap(v.offsets) {
		v.offsets = slices.Grow(v.offsets, len(v.offsets))
	}
	if len(tok) > 0 {
		// Below the top address, so that no more than MaxUint32 - 1 tokens
		// (one of them empty) are ever stored and an id + 1 fits its slot.
		if v.text.Place(len(tok))+len(tok) >= math.MaxUint32 {
			panic("gbkmv: vocabulary text past the 4 GB its 32-bit offsets address")
		}
		start, room := v.text.Alloc(len(tok))
		copy(room, tok)
		// A token that opened a new chunk starts elsewhere than the last one
		// ended. The offsets that said "ends here" now say where it starts:
		// the last token's (and the empty token's, if that came just before
		// it — a token appears once), each then the rest of its chunk.
		for i := last; i >= 0 && v.offsets[i] == end && start != end; i-- {
			v.offsets[i] = start
		}
		end = start + uint32(len(tok))
	}
	v.offsets = append(v.offsets, end)
}

// lay builds the table at size slots from the stored tokens, and reports
// false where two of them are equal. The caller holds the write lock, or is
// the only one to hold the vocabulary.
func (v *Vocabulary) lay(size int) bool {
	v.slots = make([]uint32, size)
	for id := range v.n() {
		tok := v.token(uint32(id))
		h := v.hash(tok)
		slot, dup := v.probe(tok, h)
		if dup {
			return false
		}
		v.slots[slot] = v.tag(h) | uint32(id+1)
	}
	return true
}

// Lookup returns the id of a token without allocating, and whether it was
// known.
func (v *Vocabulary) Lookup(token string) (Element, bool) { return v.LookupBytes(bytesOf(token)) }

// LookupBytes is Lookup for a token still held as bytes.
func (v *Vocabulary) LookupBytes(token []byte) (Element, bool) {
	h := v.hash(token)
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.lookup(token, h)
}

// Token returns the token of an id, or "" for an unknown id. The string
// aliases the vocabulary's own bytes, which are never rewritten.
func (v *Vocabulary) Token(id Element) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.tokenString(id)
}

// tokenString is Token for a caller that holds the lock.
func (v *Vocabulary) tokenString(id Element) string {
	if id >= Element(v.n()) {
		return ""
	}
	b := v.token(uint32(id))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Len returns the number of distinct tokens seen.
func (v *Vocabulary) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.n()
}

// SizeBytes returns the bytes the vocabulary holds: the tokens' text and 4
// bytes an offset and a table slot. It costs O(1).
func (v *Vocabulary) SizeBytes() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.text.Len() + 4*(len(v.offsets)+len(v.slots))
}

// Record converts tokens to a Record, allocating ids as needed, under one
// read lock and, if any token is new, one write lock.
func (v *Vocabulary) Record(tokens []string) Record {
	elems, misses := make([]Element, len(tokens)), 0
	v.mu.RLock()
	for i, t := range tokens {
		tok := bytesOf(t)
		id, ok := v.lookup(tok, v.hash(tok))
		if !ok {
			id, misses = missing, misses+1
		}
		elems[i] = id
	}
	v.mu.RUnlock()
	if misses > 0 {
		internMissing(v, elems, func(k int) []byte { return bytesOf(tokens[k]) })
	}
	return dataset.SortRecord(elems)
}

// QueryRecord converts tokens to a Record using only tokens already in the
// vocabulary, without allocating ids, and also reports the number of
// distinct unknown tokens. Unknown tokens cannot appear in any indexed
// record but still belong to the query set Q, so callers should search with
// Index.Prepare(r).WithSize(len(r) + unknown) to keep the containment
// denominator |Q| honest.
func (v *Vocabulary) QueryRecord(tokens []string) (r Record, unknown int) {
	elems := make([]Element, 0, len(tokens))
	var misses map[string]struct{}
	v.mu.RLock()
	for _, t := range tokens {
		tok := bytesOf(t)
		if id, ok := v.lookup(tok, v.hash(tok)); ok {
			elems = append(elems, id)
			continue
		}
		if misses == nil {
			misses = make(map[string]struct{})
		}
		misses[t] = struct{}{}
	}
	v.mu.RUnlock()
	return dataset.SortRecord(elems), len(misses)
}

// Tokens converts a Record back to its tokens (unknown ids become ""), under
// one read lock.
func (v *Vocabulary) Tokens(r Record) []string {
	out := make([]string, len(r))
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i, e := range r {
		out[i] = v.tokenString(e)
	}
	return out
}

// Shingles splits s into its overlapping q-grams (byte-wise), the
// set representation the paper uses for error-tolerant string matching
// ("the vocabulary will blow up quickly when the higher-order shingles are
// used"). Strings shorter than q yield a single shingle containing the
// whole string; q must be positive.
func Shingles(s string, q int) []string {
	if q <= 0 {
		panic("gbkmv: shingle size must be positive")
	}
	if len(s) <= q {
		if s == "" {
			return nil
		}
		return []string{s}
	}
	out := make([]string, 0, len(s)-q+1)
	for i := 0; i+q <= len(s); i++ {
		out = append(out, s[i:i+q])
	}
	return out
}

// ShingleRecord maps the q-grams of s into the vocabulary as a Record, under
// the one lock of Record.
func (v *Vocabulary) ShingleRecord(s string, q int) Record {
	return v.Record(Shingles(s, q))
}
