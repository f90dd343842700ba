package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"gbkmv"
)

// The bodies that are tokens almost to the byte — PUT /collections/{name},
// POST …/records, and search, topk and their batch forms — are read by a
// streaming scanner instead of encoding/json: reflection decoding turns each
// token into a string, each record into a grown slice and buffers the whole
// body besides (22× the body in allocations for a 13.6 MB build, 1 kB for a
// three-field search request). The scanner walks the body once through a
// fixed window and hands the bytes straight to their consumer: the vocabulary
// for a build, one slab for an insert, the query as it stands — the end of
// the answer cache's key — for a search.
//
// It accepts what json.Decoder with DisallowUnknownFields accepts for the
// same struct, and reads it the same way: case-folded keys, a later
// duplicate key replacing (records, file, query, queries) or merging into
// (options) an earlier one, null as "leave unset" for a string, number or
// bool and as "empty" for an array, U+FFFD for invalid UTF-8 and lone
// surrogates, nothing read past the closing brace. Two departures. On a
// repeated "records" key encoding/json decodes into the previous slice and a
// null token keeps that slot's old string; here a null token is always "".
// And an unknown field or a value of the wrong type is reported where it
// stands, while encoding/json first reads on to the closing brace: a body
// with both such a field and a syntax error behind it, or the size bound, is
// answered for the field. ingest_test.go and query_body_test.go hold the
// tables and the fuzz targets that pin this.

// scanWindow is the scanner's window: large enough that refills are rare,
// small enough that a pooled scanner costs nothing to keep. It grows only
// for a single token longer than itself. Scanners whose window, slab or
// captured values grew past scanKeepBytes are dropped, not pooled.
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

	// Values kept as they stand (capture): their bytes back to back, the end
	// offset of each, and — while one is being read — where in the window
	// its not yet copied part starts (-1 otherwise).
	raw     []byte
	rawEnds []int
	mark    int
	queries [][]byte // queryBody.queries' backing array

	// An insert's records (readInsert), and its journal frames and then its
	// acknowledgement: the request keeps the scanner until it has answered.
	// ids is encodeFrames' scratch.
	tokenBatch
	frames []byte
	ids    []gbkmv.Element
}

var scanPool = sync.Pool{New: func() any {
	return &bodyScanner{buf: make([]byte, scanWindow)}
}}

func getScanner(r io.Reader) *bodyScanner {
	s := scanPool.Get().(*bodyScanner)
	s.r, s.pos, s.end, s.rerr, s.mark = r, 0, 0, nil, -1
	return s
}

func putScanner(s *bodyScanner) {
	if len(s.buf) > scanKeepBytes || cap(s.slab) > scanKeepBytes || cap(s.raw) > scanKeepBytes || cap(s.frames) > scanKeepBytes || cap(s.ids) > scanKeepBytes/8 {
		return
	}
	s.r = nil
	scanPool.Put(s)
}

// over points the scanner at a value already in memory: b is its window and
// nothing is read.
func (s *bodyScanner) over(b []byte) {
	s.r, s.buf, s.pos, s.end, s.rerr, s.mark = nil, b, 0, len(b), io.EOF, -1
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
		if s.mark >= 0 {
			s.raw = append(s.raw, s.buf[s.mark:s.pos]...)
			s.mark = 0
		}
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

// literal consumes null, true or false: the one the caller saw the first
// byte of.
func (s *bodyScanner) literal(word string) error {
	for s.end-s.pos < len(word) {
		if !s.fill() {
			return s.readErr()
		}
	}
	if string(s.buf[s.pos:s.pos+len(word)]) != word {
		return syntaxErr(word[0], "where a value should start")
	}
	s.pos += len(word)
	return nil
}

// at returns the byte i past the unread position, or 0 where the body ends
// first.
func (s *bodyScanner) at(i int) byte {
	for s.pos+i >= s.end {
		if !s.fill() {
			return 0
		}
	}
	return s.buf[s.pos+i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes the number the caller saw the first byte of, held to the
// JSON grammar, and returns its text, valid until the scanner is used again.
func (s *bodyScanner) number() ([]byte, error) {
	i := 0
	digits := func() bool {
		from := i
		for isDigit(s.at(i)) {
			i++
		}
		return i > from
	}
	ok := true
	if s.at(i) == '-' {
		i++
	}
	if s.at(i) == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && s.at(i) == '.' {
		i++
		ok = digits()
	}
	if c := s.at(i); ok && (c == 'e' || c == 'E') {
		i++
		if c = s.at(i); c == '+' || c == '-' {
			i++
		}
		ok = digits()
	}
	if !ok {
		if s.pos+i >= s.end {
			return nil, s.readErr()
		}
		return nil, syntaxErr(s.buf[s.pos+i], "in a number")
	}
	text := s.buf[s.pos : s.pos+i]
	s.pos += i
	return text, nil
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

// unquote decodes the inside of a string literal: text itself when it stands
// for its own bytes, s.tok otherwise.
func (s *bodyScanner) unquote(text []byte) ([]byte, error) {
	if utf8.Valid(text) && bytes.IndexByte(text, '\\') < 0 {
		return text, nil
	}
	var err error
	s.tok, err = appendUnquoted(s.tok[:0], text)
	return s.tok, err
}

// appendUnquoted appends what the inside of a string literal stands for, the
// way encoding/json decodes it: invalid UTF-8 and surrogate halves without
// their partner become U+FFFD. text must not end inside an escape's first two
// bytes (no lone trailing backslash).
func appendUnquoted(out, text []byte) ([]byte, error) {
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
				return out, errors.New("invalid JSON: bad \\u escape in a string")
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
			return out, syntaxErr(esc, "after a backslash")
		}
	}
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

// maxDepth is how deep arrays and objects may nest: encoding/json's bound.
const maxDepth = 10000

// value consumes one value of any type, held to the JSON grammar. depth is
// how many arrays and objects are open around it.
func (s *bodyScanner) value(depth int) error {
	c, err := s.next()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, err = s.str()
	case c == 'n':
		err = s.literal("null")
	case c == 't':
		err = s.literal("true")
	case c == 'f':
		err = s.literal("false")
	case c == '-' || isDigit(c):
		_, err = s.number()
	case c == '[' || c == '{':
		if depth >= maxDepth {
			return errors.New("invalid JSON: exceeded max depth")
		}
		closer := c + 2 // in ASCII, for both
		var done bool
		done, err = s.open(closer)
		for !done && err == nil {
			if c == '{' {
				if err = s.memberKey(); err != nil {
					return err
				}
			}
			if err = s.value(depth + 1); err != nil {
				return err
			}
			done, err = s.sep(closer)
		}
	default:
		err = syntaxErr(c, "where a value should start")
	}
	return err
}

// memberKey consumes an object member's key and colon, leaving the key,
// unescaped, in s.key and the scanner on the member's value.
func (s *bodyScanner) memberKey() error {
	c, err := s.next()
	if err != nil {
		return err
	}
	if c != '"' {
		return syntaxErr(c, "where a key should start")
	}
	key, err := s.str()
	if err != nil {
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
	return nil
}

func (s *bodyScanner) resetCaptures() { s.raw, s.rawEnds = s.raw[:0], s.rawEnds[:0] }

// capture consumes one value of any type, held to the JSON grammar, and
// keeps its bytes as they stand — what a json.RawMessage field would hold —
// at the end of s.raw, noting where they end in s.rawEnds.
func (s *bodyScanner) capture(depth int) error {
	if _, err := s.next(); err != nil {
		return err
	}
	s.mark = s.pos
	err := s.value(depth)
	s.raw = append(s.raw, s.buf[s.mark:s.pos]...)
	s.mark = -1
	s.rawEnds = append(s.rawEnds, len(s.raw))
	return err
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
		return s.literal("null")
	}
	if c != '{' {
		return syntaxErr(c, "where the request object should start")
	}
	done, err := s.open('}')
	for !done && err == nil {
		if err = s.memberKey(); err != nil {
			return err
		}
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
		return s.literal("null")
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

// tokens walks an array of strings, or null, calling token for each one's
// bytes (valid only during the call). A null token is the empty string.
func (s *bodyScanner) tokens(what string, token func([]byte)) error {
	c, err := s.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return s.literal("null")
	}
	if c != '[' {
		return syntaxErr(c, "where "+what+" should start")
	}
	done, err := s.open(']')
	for !done && err == nil {
		if done = s.plainTokens(token); done {
			break
		}
		if err = s.tokenElem(token); err != nil {
			return err
		}
		done, err = s.sep(']')
	}
	return err
}

// plainByte marks the bytes a string may hold and stand for itself in:
// printable ASCII but for the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainTokens consumes the array's elements for as long as each is a string
// of plain bytes followed at once by a comma or the closing bracket, calling
// token for each, and reports whether it consumed the bracket. It stops at
// the start of any other element — an escape, a control or non-ASCII byte,
// null, whitespace, a window's end — and leaves it to tokenElem and sep: the
// common case in one loop, everything else read as before.
func (s *bodyScanner) plainTokens(token func([]byte)) (done bool) {
	buf := s.buf[:s.end]
	for i := s.pos; i < len(buf) && buf[i] == '"'; {
		j := i + 1
		for j < len(buf) && plainByte[buf[j]] {
			j++
		}
		if j+1 >= len(buf) || buf[j] != '"' || buf[j+1] != ',' && buf[j+1] != ']' {
			break
		}
		token(buf[i+1 : j])
		i, s.pos = j+2, j+2
		if buf[j+1] == ']' {
			return true
		}
	}
	return false
}

// tokenElem reads one element of a token array: a string, or null for the
// empty token.
func (s *bodyScanner) tokenElem(token func([]byte)) error {
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
		return s.literal("null")
	}
	return notAToken(c)
}

// notAToken is the error of an array element that starts with this byte,
// which neither a string nor null does.
type notAToken byte

func (c notAToken) Error() string {
	return syntaxErr(byte(c), "where a token should start").Error()
}

// records walks a "records" value — an array of token arrays, or null —
// calling token for each token's bytes and endRecord after each record, whose
// error ends the walk. A null record has no tokens.
func (s *bodyScanner) records(token func([]byte), endRecord func() error) error {
	return s.array("the records array", func() error {
		if err := s.tokens("a record", token); err != nil {
			return err
		}
		return endRecord()
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
		return s.literal("null")
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

// optNumber reads a number value's text (valid until the scanner is used
// again), or nil for null.
func (s *bodyScanner) optNumber() ([]byte, error) {
	c, err := s.next()
	switch {
	case err != nil:
		return nil, err
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || isDigit(c):
		return s.number()
	}
	return nil, syntaxErr(c, "where a number should start")
}

// optFloat reads a number into dst; null leaves dst alone.
func (s *bodyScanner) optFloat(dst *float64) error {
	text, err := s.optNumber()
	if err != nil || text == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return fmt.Errorf("number %s does not fit a float64", text)
	}
	*dst = f
	return nil
}

// optInt reads a number into dst, refusing one written with a fraction or an
// exponent as encoding/json does for an int field; null leaves dst alone.
func (s *bodyScanner) optInt(dst *int) error {
	text, err := s.optNumber()
	if err != nil || text == nil {
		return err
	}
	n, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an integer in range", text)
	}
	*dst = int(n)
	return nil
}

// optBool reads true or false into dst; null leaves dst alone.
func (s *bodyScanner) optBool(dst *bool) error {
	c, err := s.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return s.literal("null")
	case c == 't':
		err = s.literal("true")
	case c == 'f':
		err = s.literal("false")
	default:
		return syntaxErr(c, "where true or false should start")
	}
	if err == nil {
		*dst = c == 't'
	}
	return err
}

// keyIs matches a key the way encoding/json matches struct fields.
func keyIs(key []byte, name string) bool { return bytes.EqualFold(key, []byte(name)) }

// buildBody is a scanned build request. Its "records" — an array of token
// arrays, mutually exclusive with File — are interned and coded into corpus
// as they are read; firstEmpty is the index of the first one without tokens,
// or -1.
type buildBody struct {
	// File names a server-side line-oriented record file (one record per
	// line, whitespace-separated tokens). Only honored when the daemon was
	// started with -record-files; paths resolve under (and must stay
	// within) that directory.
	File    string
	Options buildOptions

	voc        *gbkmv.Vocabulary
	corpus     *gbkmv.Corpus
	firstEmpty int
}

// readBuild scans a build body, interning its records as it goes.
func (s *bodyScanner) readBuild() (buildBody, error) {
	var b buildBody
	var rb *gbkmv.RecordBuilder
	var records int
	fresh := func() {
		if rb != nil {
			rb.Corpus() // its workers stop
		}
		b.voc, b.firstEmpty, records = gbkmv.NewVocabulary(), -1, 0
		rb = gbkmv.NewRecordBuilder(b.voc)
	}
	fresh()
	err := s.object(func(key []byte) error {
		switch {
		case keyIs(key, "records"):
			// A repeated key replaces what the earlier one read, ids
			// included.
			fresh()
			return s.records(rb.Token, func() error {
				if rb.EndRecord() && b.firstEmpty < 0 {
					b.firstEmpty = records
				}
				records++
				return nil
			})
		case keyIs(key, "file"):
			return s.optString(&b.File)
		case keyIs(key, "options"):
			c, err := s.next()
			if err != nil {
				return err
			}
			if c == 'n' {
				return s.literal("null")
			}
			if c != '{' {
				return syntaxErr(c, "where the options object should start")
			}
			s.resetCaptures()
			if err := s.capture(1); err != nil {
				return err
			}
			// Decoding into the same struct merges a repeated key's
			// fields, as decoding the whole body at once did.
			dec := json.NewDecoder(bytes.NewReader(s.raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&b.Options); err != nil {
				return fmt.Errorf("options: %w", err)
			}
			return nil
		}
		return fmt.Errorf("unknown field %q", key)
	})
	// Whatever ended the scan, the builder's workers stop here.
	corpus, coded := rb.Corpus()
	b.corpus = corpus
	return b, cmp.Or(err, coded)
}

// readInsert scans an insert body's records into the scanner's tokenBatch,
// as Collection.insert takes them.
func (s *bodyScanner) readInsert() (requestID string, err error) {
	s.tokenBatch.reset()
	err = s.object(func(key []byte) error {
		switch {
		case keyIs(key, "records"):
			s.tokenBatch.reset() // a repeated key replaces what the earlier one read
			return s.records(s.token, func() error {
				s.endRecord()
				return nil
			})
		case keyIs(key, "request_id"):
			return s.optString(&requestID)
		}
		return fmt.Errorf("unknown field %q", key)
	})
	return requestID, err
}

// querySpec is what a search-shaped request asks about its query or queries:
// a threshold search of at most limit hits (0: all) or, with topk set, the k
// best. withTokens adds each hit's record tokens to the response.
type querySpec struct {
	topk       bool
	threshold  float64
	limit, k   int
	withTokens bool
}

// queryBody is a scanned search, topk, search:batch or topk:batch request.
// A query is kept as its JSON stands in the body: a byte-identical hot query
// resolves through the answer cache's exact-bytes key without per-token
// decoding. query (nil when the body had none) and queries alias
// the scanner's buffers and are valid until it is used again or put back.
type queryBody struct {
	query   []byte
	queries [][]byte
	querySpec
}

// readQuery scans the body of one of the four query endpoints: "query" (or,
// for a batch form, "queries") and "with_tokens", with "threshold" and
// "limit" for a search and "k" for a top-k.
func (s *bodyScanner) readQuery(batch, topk bool) (queryBody, error) {
	b := queryBody{querySpec: querySpec{topk: topk}}
	s.resetCaptures()
	err := s.object(func(key []byte) error {
		switch {
		case !batch && keyIs(key, "query"):
			s.resetCaptures()
			return s.capture(1)
		case batch && keyIs(key, "queries"):
			s.resetCaptures()
			return s.array("the queries array", func() error { return s.capture(2) })
		case !topk && keyIs(key, "threshold"):
			return s.optFloat(&b.threshold)
		case !topk && keyIs(key, "limit"):
			return s.optInt(&b.limit)
		case topk && keyIs(key, "k"):
			return s.optInt(&b.k)
		case keyIs(key, "with_tokens"):
			return s.optBool(&b.withTokens)
		}
		return fmt.Errorf("unknown field %q", key)
	})
	if err != nil {
		return b, err
	}
	// Views only now: s.raw moved while it grew.
	b.queries = s.queries[:0]
	start := 0
	for _, end := range s.rawEnds {
		b.queries = append(b.queries, s.raw[start:end:end])
		start = end
	}
	s.queries = b.queries
	if !batch && len(b.queries) == 1 {
		b.query = b.queries[0]
	}
	return b, nil
}

// maxBatchQueries bounds one batch request: the whole batch runs under a
// single read-lock acquisition, so an unbounded batch could starve writers.
const maxBatchQueries = 1024

// invalid is what is wrong with a request that scanned, or nil.
func (b *queryBody) invalid(batch bool) error {
	switch {
	case batch && len(b.queries) == 0:
		return errors.New("no queries")
	case batch && len(b.queries) > maxBatchQueries:
		return fmt.Errorf("batch of %d queries exceeds the limit of %d", len(b.queries), maxBatchQueries)
	case b.topk && b.k <= 0:
		return errors.New("k must be positive")
	case !b.topk && !(b.threshold >= 0 && b.threshold <= 1):
		return errors.New("threshold must be in [0, 1]")
	}
	return nil
}
