package gbkmv

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
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

// Len returns the number of records.
func (c *Corpus) Len() int { return c.recs.Len() }

// Elements returns the number of element occurrences over all records.
func (c *Corpus) Elements() int { return c.recs.Elements() }

// Record returns a decoded copy of record i, the caller's to keep.
func (c *Corpus) Record(i int) Record { return c.recs.Record(i) }

// Records returns every record decoded, each a window of one element slab.
func (c *Corpus) Records() []Record { return c.recs.All() }

// take hands the store to an engine and leaves the corpus empty: whoever
// still holds the corpus no longer holds the records.
func (c *Corpus) take() snapfmt.PackedRecords {
	recs := c.recs
	c.recs = snapfmt.PackedRecords{}
	return recs
}

// RecordBuilder turns a stream of token bytes into a Corpus without an
// intermediate string per token or a slice per record. It is the ingest path
// of ReadRecords and of gbkmvd's bulk build, and a pipeline (DESIGN.md "Bulk
// ingest"): the goroutine that calls Token and EndRecord only copies token
// bytes into blocks of whole records, and GOMAXPROCS workers code the blocks —
// each resolves its tokens under one read lock of the vocabulary, interns the
// ones it did not find in block order (so ids follow first appearance, as one
// goroutine interning every token in turn gives them), sorts and
// deduplicates each record and appends the records to the corpus in block
// order. Two blocks a worker, eight at most, are in flight, sized to share
// one budget between them, and they are reused; at one proc the same block
// function runs on the caller's goroutine. The shape — workers, blocks and
// their size — follows GOMAXPROCS as NewRecordBuilder finds it. The workers
// run until Corpus is called, so call it once done, also to abandon a build.
// A builder is not safe for concurrent use.
type RecordBuilder struct {
	voc     *Vocabulary
	open    *recordBlock // the block Token and EndRecord fill
	next    int          // the place of the next block handed on
	size    int          // the bytes a block is handed on at
	workers int          // GOMAXPROCS at NewRecordBuilder; 1 codes on the caller's goroutine

	// The workers, started with the first block handed on at more than one
	// proc and stopped by Corpus.
	work chan *recordBlock // blocks to code, in order
	free chan *recordBlock // blocks coded, to fill again
	made int               // blocks allocated, cap(free) at the most
	wg   sync.WaitGroup

	// The ordered steps: how many blocks have interned and appended, which
	// mu guards, and the corpus the appends fill.
	mu                 sync.Mutex
	moved              sync.Cond
	interned, appended int
	recs               snapfmt.PackedRecords
	err                error
}

// A block is handed on at the first record end that takes its text and 8
// bytes a token (its end and its id) to its size; a record larger than that
// is a block of its own. Every block costs its worker two waits for the block
// before it, and each hand-off leaves the goroutine it wakes runnable until a
// core is free, so fewer, larger blocks decode faster; but all the blocks in
// flight are held at once, and their total adds to what a build allocates
// (DESIGN.md "Bulk ingest" has the measurements).
//
// inflightBytes is that total with workers: it is shared out evenly over the
// blocks in flight, 128 kB each at two procs and 64 kB from four on. One
// budget rather than one block size keeps what a build allocates about level
// from two procs to eight (TestBulkIngestAllocs). blockBytes is the block at
// one proc, where the caller's goroutine codes each block as it fills: there
// is no hand-off to save, and a larger block would only be held.
const (
	inflightBytes = 512 << 10
	blockBytes    = 32 << 10
)

// maxBlocks bounds the blocks in flight whatever the worker count, two a
// worker below it. A token costs a worker about twice what it costs the
// scanning goroutine, so past four workers the scan sets the pace, and more
// blocks would only be held.
const maxBlocks = 8

// blockShape returns the blocks in flight with this many workers and the size
// each is handed on at.
func blockShape(workers int) (blocks, size int) {
	if workers <= 1 {
		return 1, blockBytes
	}
	blocks = min(2*workers, maxBlocks)
	return blocks, inflightBytes / blocks
}

// recordBlock is a run of whole records on their way from the goroutine that
// reads them to the corpus.
type recordBlock struct {
	seq  int      // its place among the blocks of a corpus
	text []byte   // the tokens' bytes, back to back
	ends []uint32 // where each token ends in text, and once interned sortIDs' scratch
	recs []int    // where each record's tokens end in ends, and once coded its ids in ids
	ids  []uint32 // each token's id in token order, and once coded each record's distinct ids ascending
	err  error    // its interning's
}

// closed returns the number of tokens of the block's closed records.
func (k *recordBlock) closed() int {
	if len(k.recs) == 0 {
		return 0
	}
	return k.recs[len(k.recs)-1]
}

// token returns the bytes of token i.
func (k *recordBlock) token(i int) []byte {
	if i == 0 {
		return k.text[:k.ends[0]]
	}
	return k.text[k.ends[i-1]:k.ends[i]]
}

func (k *recordBlock) reset() {
	k.text, k.ends, k.recs, k.err = k.text[:0], k.ends[:0], k.recs[:0], nil
}

// NewRecordBuilder returns a builder interning through voc.
func NewRecordBuilder(voc *Vocabulary) *RecordBuilder {
	b := &RecordBuilder{voc: voc, open: new(recordBlock), workers: runtime.GOMAXPROCS(0)}
	_, b.size = blockShape(b.workers)
	b.moved.L = &b.mu
	return b
}

// Token adds a token to the open record. The bytes are not retained, and a
// record's tokens must come to less than 4 GB.
func (b *RecordBuilder) Token(token []byte) {
	k := b.open
	k.text = append(k.text, token...)
	if len(k.text) > math.MaxUint32 {
		panic("gbkmv: a record's tokens past 4 GB")
	}
	k.ends = append(k.ends, uint32(len(k.text)))
}

// EndRecord closes the open record and reports whether it is empty: without
// tokens (a record with any token, the empty one included, has an element).
// Its interning and coding happen later; their outcome — how many distinct
// elements each record has, or the error of a corpus past what its 32-bit
// offsets address (4 GB coded) — is Corpus's to report.
func (b *RecordBuilder) EndRecord() (empty bool) {
	k := b.open
	empty = k.closed() == len(k.ends)
	k.recs = append(k.recs, len(k.ends))
	if len(k.text)+8*len(k.ends) >= b.size {
		b.handOn()
	}
	return empty
}

// Corpus waits for the records closed so far to be coded and returns them,
// and starts the builder on an empty corpus. The tokens of a record not yet
// closed are dropped. The error is that of the first record that could not
// be coded — past the corpus's offset table, or interned past the
// vocabulary's 4 GB of text — and the corpus then holds only records that
// came before it.
func (b *RecordBuilder) Corpus() (*Corpus, error) {
	k := b.open
	n := k.closed()
	k.ends = k.ends[:n]
	if n == 0 {
		k.text = k.text[:0]
	} else {
		k.text = k.text[:k.ends[n-1]]
	}
	if len(k.recs) > 0 {
		b.handOn()
	}
	if b.work != nil {
		close(b.work)
		b.wg.Wait()
		b.work = nil
	}
	c, err := &Corpus{recs: b.recs}, b.err
	b.recs, b.err = snapfmt.PackedRecords{}, nil
	b.next, b.interned, b.appended = 0, 0, 0
	return c, err
}

// handOn passes the open block on to be coded — to the workers, started with
// the first block at more than one proc, or else on this goroutine — and
// opens another.
func (b *RecordBuilder) handOn() {
	k := b.open
	k.seq, b.next = b.next, b.next+1
	if b.work == nil && b.workers > 1 {
		b.start()
	}
	if b.work == nil {
		b.code(k)
		k.reset()
		return
	}
	// A new block is as large as the last one grew: only the first grows by
	// append. k is the worker's once sent.
	text, ends, recs := cap(k.text), cap(k.ends), cap(k.recs)
	b.work <- k
	select {
	case b.open = <-b.free:
	default:
		if b.made < cap(b.free) {
			b.open = &recordBlock{text: make([]byte, 0, text), ends: make([]uint32, 0, ends), recs: make([]int, 0, recs)}
			b.made++
		} else {
			b.open = <-b.free
		}
	}
}

// start starts the workers. Their blocks outlive them, for the builder's
// next corpus: blockShape's count, one of which the caller holds open.
func (b *RecordBuilder) start() {
	if b.free == nil {
		blocks, _ := blockShape(b.workers)
		b.free, b.made = make(chan *recordBlock, blocks), 1
	}
	b.work = make(chan *recordBlock, cap(b.free))
	b.wg.Add(b.workers)
	for range b.workers {
		go func() {
			defer b.wg.Done()
			for k := range b.work {
				b.code(k)
				k.reset()
				b.free <- k
			}
		}()
	}
}

// code resolves, interns, sorts and appends a block's records. The intern and
// the append wait for the blocks before it: a block's read pass can only find
// tokens that earlier blocks interned, and its misses take the next ids in
// token order, so every id is the one a serial build gives.
func (b *RecordBuilder) code(k *recordBlock) {
	k.ids = slices.Grow(k.ids[:0], len(k.ends))[:len(k.ends)]
	misses := b.voc.resolve(k.ids, k.text, k.ends)
	b.await(&b.interned, k.seq)
	if misses > 0 {
		k.err = b.intern(k)
	}
	b.pass(&b.interned)
	from, w := 0, 0
	for i, end := range k.recs {
		rec := k.ids[from:end]
		sortIDs(rec, k.ends)
		w += copy(k.ids[w:], slices.Compact(rec))
		from, k.recs[i] = end, w
	}
	b.await(&b.appended, k.seq)
	b.err = cmp.Or(b.err, k.err)
	from = 0
	for _, end := range k.recs {
		if b.err == nil {
			if err := b.recs.Append32(k.ids[from:end]); err != nil {
				b.err = fmt.Errorf("gbkmv: %w", err)
			}
		}
		from = end
	}
	b.pass(&b.appended)
}

// intern interns the block's misses. A panic there — the vocabulary's, past
// the 4 GB of text its offsets address — becomes the block's error, so that
// the blocks after it still get their turn and the caller, not a worker,
// fails.
func (b *RecordBuilder) intern(k *recordBlock) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gbkmv: interning: %v", r)
		}
	}()
	internMissing(b.voc, k.ids, k.token)
	return nil
}

// sortIDs sorts ids ascending, with tmp, as long at least, for scratch. A
// record of a few dozen ids or more is radix sorted, a byte a pass and as
// many passes as its largest id has bytes: on records of vocabulary ids,
// dense and mostly under 2¹⁶, that is two passes, two to three times faster
// than slices.Sort from 32 ids on. Below 24 slices.Sort is faster.
func sortIDs(ids, tmp []uint32) {
	if len(ids) < 24 {
		slices.Sort(ids)
		return
	}
	var top uint32
	for _, id := range ids {
		top |= id
	}
	src, dst := ids, tmp[:len(ids)]
	for shift := 0; shift < 32 && top>>shift != 0; shift += 8 {
		var at [256]int
		for _, id := range src {
			at[byte(id>>shift)]++
		}
		sum := 0
		for d, n := range at[:min(int(top>>shift), 255)+1] {
			at[d], sum = sum, sum+n
		}
		for _, id := range src {
			d := byte(id >> shift)
			dst[at[d]] = id
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// await returns once step has counted seq blocks.
func (b *RecordBuilder) await(step *int, seq int) {
	b.mu.Lock()
	for *step != seq {
		b.moved.Wait()
	}
	b.mu.Unlock()
}

// pass counts one more block through step.
func (b *RecordBuilder) pass(step *int) {
	b.mu.Lock()
	*step++
	b.mu.Unlock()
	b.moved.Broadcast()
}

// ReadLines appends one record per non-blank line of r, the format of
// ReadRecords, without keeping the text. keep, when not nil, sees each such
// line, trimmed, before the line buffer moves on. The error is the reader's:
// one in coding the records is Corpus's.
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
	c, coded := b.Corpus()
	if err = cmp.Or(err, coded); err != nil {
		return nil, nil, err
	}
	return c.Records(), lines, nil
}
