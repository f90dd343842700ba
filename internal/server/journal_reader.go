package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// journalScanner is the one frame-decode loop shared by every consumer of
// the journal byte stream: startup replay and the scrub (scanJournal), the
// follower's replicated-frame apply (ApplyReplicated) and the scanner unit
// tests. It reads length-prefixed CRC-framed entries from an io.Reader,
// decodes each payload (decodeFrame) and classifies every way a stream can
// end:
//
//   - a clean end on a frame boundary is io.EOF;
//   - a torn trailing frame — a crash mid-append, or a replication chunk cut
//     mid-frame by a dropped connection — is errTornFrame, and Offset()
//     reports the boundary of the last intact frame, which is exactly where
//     the consumer resumes (replay truncates to it, the follower re-requests
//     from it);
//   - corruption that is provably not a torn tail (a bad length CRC, a bad
//     payload CRC with more data behind it, an oversized length claim) is a
//     hard error, because silently dropping interior frames would be data
//     loss; so is an intact frame whose payload does not decode — a JSON
//     frame of an earlier build among them (errJSONFrame).
//
// The size bound, when known (>= 0), is what distinguishes "bad CRC on the
// very last frame" (torn tail) from "bad CRC with frames after it"
// (corruption), and lets a length field that overruns the file be treated
// as torn rather than trusted. Streams of unknown length (size < 0) treat
// any short read as torn and any CRC mismatch as corruption — the
// replication stream carries only sealed, fsynced frames, so a mismatch
// there is never a torn append. The scanner also tolerates files that grow
// behind it: it reads only what the size bound admits and never seeks.
type journalScanner struct {
	r    *bufio.Reader
	end  int64  // absolute end-of-stream offset; < 0 when unknown (network stream)
	off  int64  // boundary of the last intact frame (the resume point)
	name string // stream name for error text

	payload []byte // the frame being decoded
	frame   frame  // and what it holds
}

// errTornFrame marks a partial trailing frame: the stream ended mid-frame.
// The scanner's Offset() is the resync point.
var errTornFrame = errors.New("torn trailing journal frame")

// newJournalScanner scans the stream starting at logical offset base (so
// Offset and error text report absolute positions). size is the number of
// readable bytes from base, or -1 when unknown.
func newJournalScanner(r io.Reader, base, size int64, name string) *journalScanner {
	end := int64(-1)
	if size >= 0 {
		end = base + size
	}
	return &journalScanner{r: bufio.NewReader(r), end: end, off: base, name: name}
}

// newFrameScanner scans an in-memory frame stream (a replication chunk)
// whose first byte sits at absolute journal offset base.
func newFrameScanner(frames []byte, base int64, name string) *journalScanner {
	return newJournalScanner(bytes.NewReader(frames), base, int64(len(frames)), name)
}

// Offset returns the offset just past the last intact frame — the point to
// truncate a torn file back to, or to resume a cut stream from.
func (s *journalScanner) Offset() int64 { return s.off }

// Next decodes the next frame into s.frame and returns the request id it
// echoes ("" for none). It returns io.EOF at a clean end,
// errTornFrame for a partial trailing frame, and a descriptive hard error for
// corruption; any other error from the underlying reader (EIO, ...) is passed
// through wrapped, since truncating on a transient read error would delete
// acknowledged entries.
func (s *journalScanner) Next() (rid string, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		switch err {
		case io.EOF:
			return "", io.EOF // clean end on a frame boundary
		case io.ErrUnexpectedEOF:
			return "", errTornFrame // torn header
		default:
			return "", fmt.Errorf("journal %s: reading header at offset %d: %v", s.name, s.off, err)
		}
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	hdrSum := binary.BigEndian.Uint32(hdr[4:8])
	sum := binary.BigEndian.Uint32(hdr[8:12])
	if crc32.ChecksumIEEE(hdr[0:4]) != hdrSum {
		// A torn write produces a *short* header (caught above), never a
		// complete one with a bad length checksum: this is corruption, and
		// trusting the length would misread — or, worse, silently truncate —
		// everything after it.
		return "", fmt.Errorf("journal %s: corrupt entry header at offset %d", s.name, s.off)
	}
	if s.end >= 0 && int64(n) > s.end-(s.off+int64(len(hdr))) {
		return "", errTornFrame // length overruns the stream: torn tail
	}
	if n > journalMaxEntry {
		return "", fmt.Errorf("journal %s: entry at offset %d claims %d bytes", s.name, s.off, n)
	}
	if uint32(cap(s.payload)) < n {
		s.payload = make([]byte, n)
	}
	payload := s.payload[:n]
	if _, err := io.ReadFull(s.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return "", errTornFrame // torn payload
		}
		return "", fmt.Errorf("journal %s: reading entry at offset %d: %v", s.name, s.off, err)
	}
	entryEnd := s.off + int64(len(hdr)) + int64(n)
	if crc32.ChecksumIEEE(payload) != sum {
		if s.end >= 0 && entryEnd == s.end {
			return "", errTornFrame // corrupt tail frame: torn
		}
		return "", fmt.Errorf("journal %s: corrupt entry at offset %d", s.name, s.off)
	}
	if err := decodeFrame(payload, &s.frame); err != nil {
		return "", fmt.Errorf("journal %s: entry at offset %d: %w", s.name, s.off, err)
	}
	s.off = entryEnd
	return s.frame.rid, nil
}

// scanRuns drains the scanner. each is handed every frame as it decodes —
// replay applies it there, the follower checks it will apply, the scrub
// ignores it — and an error from it ends the scan. run is told each maximal
// run [from, to) of consecutive records — counted from the first scanned —
// that echo one request id: the shape of an original insert batch (id-less
// inserts coalesce, which is harmless since only tagged batches are
// remembered). Replay and the follower both find their batches here, so the
// duplicate-detection window is rebuilt identically everywhere. A clean end
// and a torn trailing frame end the scan normally (Offset() is the valid
// length); corruption is returned.
func (s *journalScanner) scanRuns(each func(f *frame) error, run func(from, to int, rid string)) (records int, err error) {
	from, cur := 0, ""
	for {
		at := s.off
		rid, err := s.Next()
		if records > from && (err != nil || rid != cur) {
			run(from, records, cur)
		}
		switch {
		case err == io.EOF || errors.Is(err, errTornFrame):
			return records, nil
		case err != nil:
			return records, err
		case rid != cur:
			from, cur = records, rid
		}
		records++
		if err := each(&s.frame); err != nil {
			return records, fmt.Errorf("journal %s: entry at offset %d: %w", s.name, at, err)
		}
	}
}
