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

// SetFollower marks the store as a read replica of the leader at the given
// base URL ("" reverts to leader role). Every write endpoint then fences
// with a redirect to the leader; Close stops snapshotting (a replica's
// generation must track the leader's).
func (s *Store) SetFollower(leaderURL string) {
	s.leaderURL.Store(leaderURL)
	if leaderURL == "" {
		s.chainDepth.Store(0)
	}
}

// FollowerLeader returns the leader base URL, or "" when this store is the
// leader.
func (s *Store) FollowerLeader() string {
	v, _ := s.leaderURL.Load().(string)
	return v
}

// SetReadyCheck installs an extra /readyz gate: the endpoint reports 503
// with the returned reason until fn reports true. The follower uses it to
// keep load balancers away until bootstrap finished and lag is bounded.
func (s *Store) SetReadyCheck(fn func() (ok bool, reason string)) { s.readyCheck.Store(fn) }

// SetPromoteHandler installs the function POST /promote runs — the
// follower's promotion sequence (stop replicating, roll every generation,
// drop write fencing). Installed by repl.New; nil on a leader.
func (s *Store) SetPromoteHandler(fn func() error) { s.promoteFn.Store(fn) }

func (s *Store) promoteHandler() func() error {
	fn, _ := s.promoteFn.Load().(func() error)
	return fn
}

// SetChainDepth records this node's distance from the true leader (0 on the
// leader itself, upstream+1 on a follower). WAL responses advertise it so
// downstream replicas learn their own depth; /metrics exposes it as the
// chain-depth gauge.
func (s *Store) SetChainDepth(d int64) { s.chainDepth.Store(d) }

// ChainDepth reports the node's replication chain depth (0 = leader).
func (s *Store) ChainDepth() int64 { return s.chainDepth.Load() }

func (s *Store) readyGate() (bool, string) {
	if fn, ok := s.readyCheck.Load().(func() (bool, string)); ok && fn != nil {
		return fn()
	}
	return true, ""
}

// SetReplStatsProvider installs the per-collection replication-state
// source /stats annotates responses from (nil for collections the provider
// doesn't track).
func (s *Store) SetReplStatsProvider(fn func(name string) *ReplStats) { s.replStats.Store(fn) }

func (s *Store) replStatsFor(name string) *ReplStats {
	if fn, ok := s.replStats.Load().(func(string) *ReplStats); ok && fn != nil {
		return fn(name)
	}
	return nil
}

// ReplStats is one collection's replication state as seen by its follower,
// embedded in /stats. Lag in bytes is exact (the follower's journal is
// byte-identical to the leader's, so it is a subtraction of offsets in the
// same stream); lag in entries compares the leader's applied count against
// the local one and is exact at quiescence; lag in seconds is 0 while
// caught up and otherwise the time since the replica last was.
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
// wal.appendDurable). Returns the new local journal offset and the number of
// entries applied; the follower resumes from that offset.
func (c *Collection) ApplyReplicated(gen uint64, from int64, frames []byte) (off int64, applied int, err error) {
	return c.wal.appendDurable(gen, from, frames)
}
