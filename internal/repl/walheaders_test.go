package repl

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// walHeaderNames are the headers parseWALHeaders reads, in the order the
// fuzz target's arguments give their values.
var walHeaderNames = []string{
	"X-Gbkmv-Generation", "X-Gbkmv-Synced-Offset", "X-Gbkmv-Wal-Entries",
	"X-Gbkmv-Chain-Depth", "X-Gbkmv-Chunk-Start", "X-Gbkmv-Next-Generation",
}

// headerOf sets every non-empty value under its name.
func headerOf(values ...string) http.Header {
	h := http.Header{}
	for i, v := range values {
		if v != "" {
			h.Set(walHeaderNames[i], v)
		}
	}
	return h
}

// header writes w back as the leader would: every header, but the ones
// that are absent.
func (w walHeaders) header() http.Header {
	values := []string{
		strconv.FormatUint(w.gen, 10), strconv.FormatInt(w.synced, 10), strconv.Itoa(w.entries),
		"", "", "",
	}
	if w.depth >= 0 {
		values[3] = strconv.FormatInt(w.depth, 10)
	}
	if w.start >= 0 {
		values[4] = strconv.FormatInt(w.start, 10)
	}
	if w.next != 0 {
		values[5] = strconv.FormatUint(w.next, 10)
	}
	return headerOf(values...)
}

func TestWALHeadersChunkStart(t *testing.T) {
	for _, c := range []struct {
		name   string
		start  string
		frames int
		want   string // a substring of the error; "" for none
	}{
		{"chunk at the offset asked for", "4096", 100, ""},
		{"caught up, no chunk", "", 0, ""},
		{"chunk at another offset", "1024", 100, "chunk starts at 1024, requested 4096"},
		{"chunk without a start", "", 100, "without a chunk start"},
		{"chunk with a malformed start", "40x6", 100, "bad X-Gbkmv-Chunk-Start"},
		{"chunk with a negative start", "-4096", 100, "bad X-Gbkmv-Chunk-Start"},
	} {
		hdr, err := parseWALHeaders(headerOf("3", "8192", "17", "0", c.start, ""))
		if err == nil {
			err = hdr.checkChunk(4096, c.frames)
		}
		if got := ""; err != nil {
			got = err.Error()
			if c.want == "" || !strings.Contains(got, c.want) {
				t.Errorf("%s: %v, want %q", c.name, err, c.want)
			}
		} else if c.want != "" {
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		}
	}
}

// TestWALHeadersGenerations: a generation is a uint64 on the leader's side,
// so every value it can format parses back, and only a next generation of 0
// — the absent one — or a negative one is refused.
func TestWALHeadersGenerations(t *testing.T) {
	const top = "18446744073709551615"
	hdr, err := parseWALHeaders(headerOf(top, "0", "0", "", "", top))
	if err != nil || hdr.gen != 1<<64-1 || hdr.next != 1<<64-1 {
		t.Fatalf("largest generations: %+v, %v", hdr, err)
	}
	for _, c := range [][2]string{{"-1", ""}, {"1", "0"}, {"1", "-1"}, {"18446744073709551616", ""}} {
		if _, err := parseWALHeaders(headerOf(c[0], "0", "0", "", "", c[1])); err == nil {
			t.Errorf("generation %q, next %q accepted", c[0], c[1])
		}
	}
}

// FuzzWALHeaders: any header values parse without a panic, and whatever is
// accepted is written back by the leader's rules to what parses to the same.
func FuzzWALHeaders(f *testing.F) {
	f.Add("3", "4096", "17", "0", "1024", "") // a chunk from the leader
	f.Add("1", "0", "0", "1", "", "")         // caught up, one hop down a chain
	f.Add("2", "900", "5", "0", "", "3")      // a generation handoff
	f.Add("", "", "", "", "", "")             // no headers at all
	f.Add("x", "-1", "1e3", " 5", "+7", "0")  // malformed, each its own way
	f.Add("18446744073709551615", "9223372036854775807", "9223372036854775807", "0", "0", "18446744073709551615")
	f.Add("9223372036854775808", "9223372036854775808", "0", "0", "0", "1") // one past int64
	f.Fuzz(func(t *testing.T, gen, synced, entries, depth, start, next string) {
		hdr, err := parseWALHeaders(headerOf(gen, synced, entries, depth, start, next))
		if err != nil {
			return
		}
		if hdr.synced < 0 || hdr.entries < 0 || hdr.depth < -1 || hdr.start < -1 {
			t.Fatalf("accepted a negative value: %+v", hdr)
		}
		again, err := parseWALHeaders(hdr.header())
		if err != nil || again != hdr {
			t.Fatalf("%+v written back parses as %+v, %v", hdr, again, err)
		}
		_ = hdr.checkChunk(hdr.start, 1)
	})
}
