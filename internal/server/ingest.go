package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"gbkmv"
)

// The two bulk bodies — PUT /collections/{name} and POST …/records — are
// read by a streaming scanner instead of encoding/json: a body is tokens
// almost to the byte, and reflection decoding turns each one into a string,
// each record into a grown slice and buffers the whole body besides (22×
// the body in allocations for a 13.6 MB build). The scanner walks the body
// once through a fixed window and hands token bytes straight to their
// consumer: the vocabulary for a build, one slab for an insert.
//
// It accepts what json.Decoder with DisallowUnknownFields accepts for the
// same struct, and reads it the same way: case-folded keys, a later
// duplicate key replacing (records, file) or merging into (options) an
// earlier one, null as "leave unset", U+FFFD for invalid UTF-8 and lone
// surrogates, nothing read past the closing brace. The one departure: on a
// repeated "records" key encoding/json decodes into the previous slice and a
// null token keeps that slot's old string; here a null token is always "".
// ingest_test.go holds the table and the fuzz target that pin this.

// scanWindow is the scanner's window: large enough that refills are rare,
// small enough that a pooled scanner costs nothing to keep. It grows only
// for a single token longer than itself. Scanners whose window or slab grew
// past scanKeepBytes are dropped, not pooled.
const (
	scanWindow    = 64 << 10
	scanKeepBytes = 1 << 20
)

// bodyScanner reads one request body. buf[pos:end] is the unread part of
// the window.
type bodyScanner struct {
	r        io.Reader
	buf      []byte
	pos, end int
	rerr     error // sticky error of r; io.EOF once the body ended

	key []byte // current top-level key, unescaped
	tok []byte // unescaped form of the last string that needed it
	raw []byte // last object captured by rawObject

	// Insert bodies: every token's bytes back to back, the end offset of
	// each token in slab, and the token count at the end of each record.
	slab    []byte
	tokEnds []int
	recEnds []int
}

var scanPool = sync.Pool{New: func() any {
	return &bodyScanner{buf: make([]byte, scanWindow)}
}}

func getScanner(r io.Reader) *bodyScanner {
	s := scanPool.Get().(*bodyScanner)
	s.r, s.pos, s.end, s.rerr = r, 0, 0, nil
	return s
}

func putScanner(s *bodyScanner) {
	if len(s.buf) > scanKeepBytes || cap(s.slab) > scanKeepBytes {
		return
	}
	s.r = nil
	scanPool.Put(s)
}

func syntaxErr(c byte, where string) error {
	return fmt.Errorf("invalid JSON: unexpected %q %s", c, where)
}

// fill slides the unread bytes to the front of the window (growing it when
// they already fill it) and reads more. It reports whether anything was
// read; offsets relative to pos stay valid.
func (s *bodyScanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	} else if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for empty := 0; empty < 100; empty++ {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.rerr = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// readErr is the error of a body that ended where more was needed.
func (s *bodyScanner) readErr() error {
	if s.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.rerr
}

// next skips whitespace and returns the next byte without consuming it.
func (s *bodyScanner) next() (byte, error) {
	for {
		for ; s.pos < s.end; s.pos++ {
			switch c := s.buf[s.pos]; c {
			case ' ', '\t', '\r', '\n':
			default:
				return c, nil
			}
		}
		if !s.fill() {
			return 0, s.readErr()
		}
	}
}

// null consumes the literal the caller saw the 'n' of.
func (s *bodyScanner) null() error {
	for s.end-s.pos < 4 {
		if !s.fill() {
			return s.readErr()
		}
	}
	if string(s.buf[s.pos:s.pos+4]) != "null" {
		return syntaxErr('n', "where a value should start")
	}
	s.pos += 4
	return nil
}

// sep consumes the separator after an element of an array or object and
// reports whether closer ended it.
func (s *bodyScanner) sep(closer byte) (done bool, err error) {
	c, err := s.next()
	if err != nil {
		return false, err
	}
	s.pos++
	switch c {
	case ',':
		return false, nil
	case closer:
		return true, nil
	}
	return false, syntaxErr(c, "after a value")
}

// open consumes the opening bracket the caller saw and reports whether the
// array or object closes at once.
func (s *bodyScanner) open(closer byte) (empty bool, err error) {
	s.pos++
	c, err := s.next()
	if err != nil {
		return false, err
	}
	if c == closer {
		s.pos++
		return true, nil
	}
	return false, nil
}

// str consumes the string whose opening quote is the next byte and returns
// its value: a slice of the window when the text is plain, s.tok otherwise.
// Either is valid until the scanner is used again.
func (s *bodyScanner) str() ([]byte, error) {
	plain := true
	for i := 1; ; {
		for ; s.pos+i < s.end; i++ {
			switch c := s.buf[s.pos+i]; {
			case c == '"':
				text := s.buf[s.pos+1 : s.pos+i]
				s.pos += i + 1
				if plain {
					return text, nil
				}
				return s.unquote(text)
			case c == '\\':
				plain = false
				i++ // the escaped byte cannot end the string
			case c < ' ':
				return nil, syntaxErr(c, "in a string")
			case c >= utf8.RuneSelf:
				plain = false
			}
		}
		if !s.fill() {
			return nil, s.readErr()
		}
	}
}

// unquote decodes the inside of a string literal into s.tok the way
// encoding/json does: invalid UTF-8 and surrogate halves without their
// partner become U+FFFD.
func (s *bodyScanner) unquote(text []byte) ([]byte, error) {
	if utf8.Valid(text) && bytes.IndexByte(text, '\\') < 0 {
		return text, nil
	}
	out := s.tok[:0]
	for i := 0; i < len(text); {
		c := text[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(text[i:])
			out = utf8.AppendRune(out, r)
			i += n
			continue
		}
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		// str never ends a string on a backslash, so text[i+1] exists.
		esc := text[i+1]
		i += 2
		switch esc {
		case '"', '\\', '/':
			out = append(out, esc)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(text[i:])
			if r < 0 {
				return nil, errors.New("invalid JSON: bad \\u escape in a string")
			}
			i += 4
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if len(text)-i >= 6 && text[i] == '\\' && text[i+1] == 'u' {
					low = hex4(text[i+2:])
				}
				if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, syntaxErr(esc, "after a backslash")
		}
	}
	s.tok = out
	return out, nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// rawObject captures the object whose opening brace is the next byte, to
// its matching brace, into s.raw. Only brackets and strings are tracked:
// whatever else is wrong inside, encoding/json reports when it decodes the
// capture.
func (s *bodyScanner) rawObject() ([]byte, error) {
	s.raw = s.raw[:0]
	depth, inStr, esc := 0, false, false
	for {
		for s.pos < s.end {
			c := s.buf[s.pos]
			s.pos++
			s.raw = append(s.raw, c)
			switch {
			case esc:
				esc = false
			case inStr:
				esc = c == '\\'
				inStr = c != '"'
			case c == '"':
				inStr = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth--; depth == 0 {
					return s.raw, nil
				}
			}
		}
		if !s.fill() {
			return nil, s.readErr()
		}
	}
}

// object walks the body's top-level object: field is called for each key
// (unescaped, in s.key) with the scanner on the key's value, and consumes
// it. A top-level null is an empty object, as it is to encoding/json.
func (s *bodyScanner) object(field func(key []byte) error) error {
	c, err := s.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return s.null()
	}
	if c != '{' {
		return syntaxErr(c, "where the request object should start")
	}
	done, err := s.open('}')
	for !done && err == nil {
		if c, err = s.next(); err != nil {
			return err
		}
		if c != '"' {
			return syntaxErr(c, "where a key should start")
		}
		var key []byte
		if key, err = s.str(); err != nil {
			return err
		}
		s.key = append(s.key[:0], key...) // key may alias the window
		if c, err = s.next(); err != nil {
			return err
		}
		if c != ':' {
			return syntaxErr(c, "after a key")
		}
		s.pos++
		if err = field(s.key); err != nil {
			return err
		}
		done, err = s.sep('}')
	}
	return err
}

// array walks an array value, or null, calling elem with the scanner on
// each element.
func (s *bodyScanner) array(what string, elem func() error) error {
	c, err := s.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return s.null()
	}
	if c != '[' {
		return syntaxErr(c, "where "+what+" should start")
	}
	done, err := s.open(']')
	for !done && err == nil {
		if err = elem(); err != nil {
			return err
		}
		done, err = s.sep(']')
	}
	return err
}

// records walks a "records" value — an array of token arrays, or null —
// calling token for each token's bytes (valid only during the call) and
// endRecord after each record. A null record has no tokens; a null token is
// the empty string.
func (s *bodyScanner) records(token func([]byte), endRecord func()) error {
	elem := func() error {
		c, err := s.next()
		if err != nil {
			return err
		}
		switch c {
		case '"':
			text, err := s.str()
			if err != nil {
				return err
			}
			token(text)
			return nil
		case 'n':
			token(nil)
			return s.null()
		}
		return syntaxErr(c, "where a token should start")
	}
	return s.array("the records array", func() error {
		if err := s.array("a record", elem); err != nil {
			return err
		}
		endRecord()
		return nil
	})
}

// optString reads a string value into dst; null leaves dst alone.
func (s *bodyScanner) optString(dst *string) error {
	c, err := s.next()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.null()
	case '"':
		text, err := s.str()
		if err != nil {
			return err
		}
		*dst = string(text)
		return nil
	}
	return syntaxErr(c, "where a string should start")
}

// keyIs matches a key the way encoding/json matches struct fields.
func keyIs(key []byte, name string) bool { return bytes.EqualFold(key, []byte(name)) }

// buildBody is a scanned build request. Its "records" — an array of token
// arrays, mutually exclusive with File — are interned as they are read;
// firstEmpty is the index of the first one without tokens, or -1.
type buildBody struct {
	// File names a server-side line-oriented record file (one record per
	// line, whitespace-separated tokens). Only honored when the daemon was
	// started with -record-files; paths resolve under (and must stay
	// within) that directory.
	File    string
	Options buildOptions

	voc        *gbkmv.Vocabulary
	records    []gbkmv.Record
	firstEmpty int
}

// readBuild scans a build body, interning its records as it goes.
func (s *bodyScanner) readBuild() (buildBody, error) {
	var b buildBody
	var rb *gbkmv.RecordBuilder
	fresh := func() {
		b.voc, b.firstEmpty = gbkmv.NewVocabulary(), -1
		rb = gbkmv.NewRecordBuilder(b.voc)
	}
	fresh()
	err := s.object(func(key []byte) error {
		switch {
		case keyIs(key, "records"):
			// A repeated key replaces what the earlier one read, ids
			// included.
			fresh()
			return s.records(rb.Token, func() {
				if rb.EndRecord() == 0 && b.firstEmpty < 0 {
					b.firstEmpty = len(rb.Records()) - 1
				}
			})
		case keyIs(key, "file"):
			return s.optString(&b.File)
		case keyIs(key, "options"):
			c, err := s.next()
			if err != nil {
				return err
			}
			if c == 'n' {
				return s.null()
			}
			if c != '{' {
				return syntaxErr(c, "where the options object should start")
			}
			raw, err := s.rawObject()
			if err != nil {
				return err
			}
			// Decoding into the same struct merges a repeated key's
			// fields, as decoding the whole body at once did.
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&b.Options); err != nil {
				return fmt.Errorf("options: %w", err)
			}
			return nil
		}
		return fmt.Errorf("unknown field %q", key)
	})
	b.records = rb.Records()
	return b, err
}

// readInsert scans an insert body into the token arrays Collection.Insert
// takes. All tokens share one string and one []string, so a batch costs
// three allocations whatever its size.
func (s *bodyScanner) readInsert() (batch [][]string, requestID string, err error) {
	reset := func() { s.slab, s.tokEnds, s.recEnds = s.slab[:0], s.tokEnds[:0], s.recEnds[:0] }
	reset()
	err = s.object(func(key []byte) error {
		switch {
		case keyIs(key, "records"):
			reset()
			return s.records(func(tok []byte) {
				s.slab = append(s.slab, tok...)
				s.tokEnds = append(s.tokEnds, len(s.slab))
			}, func() {
				s.recEnds = append(s.recEnds, len(s.tokEnds))
			})
		case keyIs(key, "request_id"):
			return s.optString(&requestID)
		}
		return fmt.Errorf("unknown field %q", key)
	})
	if err != nil || len(s.recEnds) == 0 {
		return nil, requestID, err
	}
	text := string(s.slab)
	tokens := make([]string, len(s.tokEnds))
	start := 0
	for i, end := range s.tokEnds {
		tokens[i] = text[start:end]
		start = end
	}
	batch = make([][]string, len(s.recEnds))
	start = 0
	for i, end := range s.recEnds {
		batch[i] = tokens[start:end:end]
		start = end
	}
	return batch, requestID, nil
}
