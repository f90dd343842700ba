package gbkmv

import (
	"strings"
	"sync"

	"gbkmv/internal/dataset"
)

// Vocabulary maps string tokens (words, q-grams, column values, ...) to
// dense element ids so that text-like data can be sketched. It is safe for
// concurrent use.
type Vocabulary struct {
	mu   sync.RWMutex
	ids  map[string]Element
	toks []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]Element)}
}

// ID returns the element id of the token, allocating a new id on first
// sight. The vocabulary keeps its own copy of a new token, so it never pins
// a larger string the caller sliced the token out of (a line, a request
// body).
func (v *Vocabulary) ID(token string) Element {
	v.mu.RLock()
	id, ok := v.ids[token]
	v.mu.RUnlock()
	if ok {
		return id
	}
	return v.add(strings.Clone(token))
}

// IDBytes is ID for a token still held as bytes (a scanner's window, a line
// buffer): a known token allocates nothing, a new one allocates its string
// once.
func (v *Vocabulary) IDBytes(token []byte) Element {
	v.mu.RLock()
	id, ok := v.ids[string(token)]
	v.mu.RUnlock()
	if ok {
		return id
	}
	return v.add(string(token))
}

// add assigns the next id to a token the caller did not find under the read
// lock; token must not alias memory the caller goes on to reuse.
func (v *Vocabulary) add(token string) Element {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[token]; ok {
		return id
	}
	id := Element(len(v.toks))
	v.ids[token] = id
	v.toks = append(v.toks, token)
	return id
}

// Lookup returns the id of a token without allocating, and whether it was
// known.
func (v *Vocabulary) Lookup(token string) (Element, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[token]
	return id, ok
}

// LookupBytes is Lookup for a token still held as bytes.
func (v *Vocabulary) LookupBytes(token []byte) (Element, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[string(token)]
	return id, ok
}

// Token returns the token of an id, or "" for an unknown id.
func (v *Vocabulary) Token(id Element) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if int(id) >= len(v.toks) {
		return ""
	}
	return v.toks[id]
}

// Len returns the number of distinct tokens seen.
func (v *Vocabulary) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.toks)
}

// Record converts tokens to a Record, allocating ids as needed.
func (v *Vocabulary) Record(tokens []string) Record {
	elems := make([]Element, len(tokens))
	for i, t := range tokens {
		elems[i] = v.ID(t)
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
		if id, ok := v.ids[t]; ok {
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

// Tokens converts a Record back to its tokens (unknown ids become "").
func (v *Vocabulary) Tokens(r Record) []string {
	out := make([]string, len(r))
	for i, e := range r {
		out[i] = v.Token(e)
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

// ShingleRecord maps the q-grams of s into the vocabulary as a Record.
func (v *Vocabulary) ShingleRecord(s string, q int) Record {
	return v.Record(Shingles(s, q))
}
