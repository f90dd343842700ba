package server

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Follower side of replication: the store-level role switch and the
// collection-level apply path. The follower process logic (bootstrap,
// stream tailing, reconnect) lives in internal/repl; this file is the
// surface it drives, kept inside package server because it works the same
// locks and invariants as the local write path.
//
// The apply path deliberately mirrors the leader's commit path, with the
// roles of journal and client swapped: the leader journals what clients
// send, the follower journals what the leader's journal already contains.
// Frames are appended verbatim, flushed and fsynced *before* they are
// applied to the engine — the follower's acknowledged position (its own
// SyncedOffset) never outruns its disk, so a follower crash replays its
// local journal on restart and resumes the stream from exactly where it
// left off, with no re-bootstrap and no gap. Both run the wal's one
// durable-append sequence and apply through the same hook, which keeps
// every derived invariant for free:
// record ids assign in journal order, the duplicate-detection window
// rebuilds from the echoed request ids, and the query generation bumps
// under the write lock so the answer cache never serves stale hits.

// ErrReplDiverged marks a replica whose local journal position no longer
// matches what the leader serves — a stale generation, an offset mismatch,
// or a handoff to an unexpected generation. The follower recovers by
// re-bootstrapping; the error exists so it can tell that apart from a
// transient storage failure.
var ErrReplDiverged = errors.New("server: replica diverged from leader")

// Replica is a store's follower role: while one is set, every write
// endpoint fences with a redirect to its leader, /readyz waits on its gate,
// /stats carries its per-collection state, POST /promote runs its promotion
// and Close skips the shutdown snapshot (a replica's generation must track
// the leader's). repl.Follower implements it; no Replica is the leader role.
type Replica interface {
	// Leader is the upstream's base URL, where fenced writes are redirected.
	Leader() string
	// Ready is the /readyz gate: 503 with the reason until it reports true.
	Ready() (ok bool, reason string)
	// ReplStats is one collection's replication state (nil for a collection
	// the replica does not track).
	ReplStats(name string) *ReplStats
	// ChainDepth is the node's distance from the true leader (1 on a
	// follower of the leader); wal responses advertise it downstream.
	ChainDepth() int64
	// Promote turns the node into the leader; on success it has called
	// SetReplica(nil).
	Promote() error
}

// SetReplica gives the store its replica role, or the leader role when r is
// nil: promotion is one SetReplica(nil).
func (s *Store) SetReplica(r Replica) {
	if r == nil {
		s.replica.Store(nil)
		return
	}
	s.replica.Store(&r)
}

// role returns the store's replica role, nil on a leader.
func (s *Store) role() Replica {
	if p := s.replica.Load(); p != nil {
		return *p
	}
	return nil
}

// ReplStats is one collection's replication state as seen by its follower,
// embedded in /stats. Lag in bytes is exact (the follower's journal is
// byte-identical to the leader's, so it is a subtraction of offsets in the
// same stream); lag in entries compares the leader's applied count against
// the local one and is exact at quiescence; lag in seconds is 0 while
// caught up and otherwise the time since the replica last was. While its
// stream fails (ConsecutiveFailures > 0) the lag headers it last saw may be
// stale: lag in bytes and in entries is then -1, unknown, and lag in seconds
// counts from its last healthy exchange.
type ReplStats struct {
	Leader             string  `json:"leader"`
	Bootstrapped       bool    `json:"bootstrapped"`
	BootstrapSeconds   float64 `json:"bootstrap_seconds,omitempty"`
	Generation         uint64  `json:"generation"`
	AppliedOffsetBytes int64   `json:"applied_offset_bytes"`
	LeaderSyncedBytes  int64   `json:"leader_synced_offset_bytes"`
	LagBytes           int64   `json:"replica_lag_bytes"`
	AppliedEntries     int     `json:"applied_entries"`
	LagEntries         int     `json:"replica_lag_entries"`
	LagSeconds         float64 `json:"replica_lag_seconds"`
	StreamReconnects   int64   `json:"stream_reconnects"`
	// ConsecutiveFailures counts stream sessions that have ended in an error
	// since the last successful exchange with the upstream; ReconnectBackoff
	// is the jittered delay the replica last slept (or is sleeping) before
	// retrying. Both zero while the stream is healthy.
	ConsecutiveFailures int64   `json:"consecutive_failures"`
	ReconnectBackoff    float64 `json:"reconnect_backoff_seconds"`
	// ChainDepth is this node's distance from the true leader (1 for a
	// follower of the leader, 2 for a follower of a follower, ...).
	ChainDepth int64 `json:"chain_depth"`
}

// CollectionDir returns the directory the named collection lives (or will
// live) in — where the follower's bootstrap writes the transferred
// snapshot files before InstallReplica loads them.
func (s *Store) CollectionDir(name string) (string, error) {
	if s.dir == "" {
		return "", ErrNoPersistence
	}
	if !ValidName(name) {
		return "", ErrBadName
	}
	return filepath.Join(s.dir, name), nil
}

// InstallReplica loads the collection from its directory — exactly the
// startup path: committed snapshot plus journal replay — and installs it,
// replacing any previous incarnation. The follower calls it after writing
// a transferred snapshot (bootstrap) and after any re-bootstrap.
func (s *Store) InstallReplica(name string) (*Collection, error) {
	dir, err := s.CollectionDir(name)
	if err != nil {
		return nil, err
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	st, err := loadGeneration(s.fs, dir, s.logf)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	old := s.cols[name]
	s.mu.RUnlock()
	if old != nil {
		old.wal.close()
		s.metrics.removeCollection(name)
	}
	// Assembled only now: the old incarnation's metric series are gone, so
	// the children this one resolves are fresh.
	c := s.adopt(dir, st)
	s.mu.Lock()
	s.cols[name] = c
	s.mu.Unlock()
	return c, nil
}

// RollGeneration performs the follower's half of a generation handoff: the
// leader snapshotted, and this replica — having applied the superseded
// journal in full, so its state equals the snapshot's — takes its own
// snapshot to advance to the same generation with an empty journal. target
// must be exactly the next generation; anything else means the replica
// missed a snapshot and must re-bootstrap.
func (s *Store) RollGeneration(name string, target uint64) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	c, err := s.Get(name)
	if err != nil {
		return err
	}
	if !c.gens.persistent() {
		return ErrNoPersistence
	}
	release := c.wal.quiesce()
	defer release()
	if cur := c.gens.gen; cur+1 != target {
		return fmt.Errorf("%w: generation handoff to %d but replica is at %d", ErrReplDiverged, target, cur)
	}
	_, err = c.snapshot()
	return err
}

// ReplPosition reports the replica's resume point: its generation, the
// logical end of its journal (== its applied, durable stream offset — the
// apply path fsyncs before applying, so the three coincide between calls)
// and the applied entry count.
func (c *Collection) ReplPosition() (gen uint64, applied int64, entries int) {
	st := c.wal.status()
	return st.gen, st.offset, st.entries
}

// ApplyReplicated ingests one stream chunk: raw journal frames of the given
// generation starting at byte offset from, which must equal the local
// journal's end. Durability strictly precedes apply, as on the leader (see
// wal.appendDurable), and a chunk with a frame whose ids the replica's
// vocabulary would not hold when it applied is refused whole. Returns the
// new local journal offset and the number of entries applied; the follower
// resumes from that offset.
func (c *Collection) ApplyReplicated(gen uint64, from int64, frames []byte) (off int64, applied int, err error) {
	return c.wal.appendDurable(gen, from, frames, newPendingVocab(c.voc).admit)
}
