package repl

import (
	"fmt"
	"net/http"
	"strconv"
)

// walHeaders is what a leader's 200 answer to GET …/wal says beside its
// frames (server/repl_leader.go sets them): the position of the generation
// the byte range belongs to, the chain depth of the node serving it, where
// the chunk starts, and — on a handoff — the generation to roll to.
type walHeaders struct {
	gen     uint64 // X-Gbkmv-Generation
	synced  int64  // X-Gbkmv-Synced-Offset: the durable frontier
	entries int    // X-Gbkmv-Wal-Entries: entries applied in the generation
	// depth is X-Gbkmv-Chain-Depth, the serving node's distance from the true
	// leader; -1 when the header is absent.
	depth int64
	// start is X-Gbkmv-Chunk-Start, the offset the frames start at; -1 when
	// the header is absent, as it is on every answer without frames.
	start int64
	// next is X-Gbkmv-Next-Generation; 0 when the header is absent.
	next uint64
}

// parseWALHeaders reads the headers of a wal answer. A header present must
// hold a decimal number, never negative — a generation any uint64 the leader
// formats, but a next generation never 0, the value that marks it absent; an
// absent header reads as its zero value, -1 for the chain depth and the chunk
// start, whose 0 means something.
func parseWALHeaders(h http.Header) (w walHeaders, err error) {
	get := func(name string) string {
		if err != nil {
			return ""
		}
		return h.Get(name)
	}
	generation := func(name string, least uint64) uint64 {
		s := get(name)
		if s == "" {
			return 0
		}
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil || v < least {
			err = fmt.Errorf("bad %s header %q", name, s)
		}
		return v
	}
	num := func(name string, absent int64) int64 {
		s := get(name)
		if s == "" {
			return absent
		}
		v, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil || v < 0 {
			err = fmt.Errorf("bad %s header %q", name, s)
		}
		return v
	}
	w = walHeaders{
		gen:     generation("X-Gbkmv-Generation", 0),
		synced:  num("X-Gbkmv-Synced-Offset", 0),
		entries: int(num("X-Gbkmv-Wal-Entries", 0)),
		depth:   num("X-Gbkmv-Chain-Depth", -1),
		start:   num("X-Gbkmv-Chunk-Start", -1),
		next:    generation("X-Gbkmv-Next-Generation", 1),
	}
	if err != nil {
		return walHeaders{}, err
	}
	return w, nil
}

// checkChunk holds n bytes of frames to the offset the follower asked for.
// A duplicated or replayed answer (a retrying proxy, a confused cache)
// carries frames from another offset, and appending them would silently
// double records; the leader names the start of every chunk it sends, so
// frames without it are refused as well.
func (w walHeaders) checkChunk(from int64, n int) error {
	switch {
	case n == 0:
		return nil
	case w.start < 0:
		return fmt.Errorf("%d bytes of frames without a chunk start; dropping", n)
	case w.start != from:
		return fmt.Errorf("chunk starts at %d, requested %d (duplicated or replayed response); dropping", w.start, from)
	}
	return nil
}
