package repl

import (
	"errors"
	"fmt"
	"time"
)

// Promotion: turning a follower into the leader after the real leader died.
//
// A follower is a byte-exact copy of the leader's journal at a known offset,
// so promotion needs no log reconciliation — only a role change made safe
// against the old leader coming back:
//
//  1. Stop replicating (cancel the loops, wait them out). Nothing applies
//     after this point, so the local journal offset A is frozen.
//  2. Roll every collection's generation with an ordinary snapshot: gen G
//     becomes G+1, recording prevGen=G, prevGenFinal=A — exactly the record
//     a leader snapshot leaves behind.
//  3. Drop write fencing (one atomic store): the node starts taking writes
//     into the new generation's journal.
//
// The generation roll IS the fence. When the old leader resurrects and is
// pointed at the promoted node (-follow), it resumes its stream at gen G
// offset S (its own durable frontier after torn-tail truncation):
//
//   - S == A: it holds exactly the state the promotion snapshotted; it gets
//     the clean X-Gbkmv-Next-Generation handoff and rolls to G+1 — an
//     instant, transfer-free demotion.
//   - S != A: it durably journaled past (or short of) the fenced frontier —
//     writes the promoted node never saw. The wal request answers 410 Gone
//     plus the current-generation header, the old leader re-bootstraps from
//     the promoted node's snapshot, and the divergent suffix is discarded
//     instead of ever serving reads.

// Promotion errors, surfaced by POST /promote.
var (
	ErrAlreadyPromoted     = errors.New("repl: follower was already promoted")
	ErrPromotionInProgress = errors.New("repl: promotion already in progress")
)

// Promote turns this follower into the leader: it stops replication, rolls
// every collection's generation (fencing off stale peers), and drops write
// fencing. It is the only way a follower becomes the leader: POST /promote
// runs it, and so may an embedding program, and nothing runs it on its own.
// Exactly one caller wins, the rest get ErrPromotionInProgress /
// ErrAlreadyPromoted. A failed promotion (a snapshot error) leaves the node a
// non-replicating follower and may be retried.
func (f *Follower) Promote() error {
	if f.promoted.Load() {
		return ErrAlreadyPromoted
	}
	if f.closing.Load() {
		return errors.New("repl: follower is shutting down")
	}
	if !f.promoting.CompareAndSwap(false, true) {
		return ErrPromotionInProgress
	}
	start := time.Now()
	// Quiesce replication: after cancel + wait, no apply loop is running and
	// no stream request is in flight, so every collection's journal offset is
	// frozen at its final replicated position.
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	names := f.store.Names()
	for _, name := range names {
		if _, err := f.store.Snapshot(name); err != nil {
			f.promoting.Store(false)
			return fmt.Errorf("rolling generation of %q: %w", name, err)
		}
	}
	// The rolls are durable; drop the fence. Ordering matters: a write
	// accepted before every generation rolled could land in a journal a
	// fenced-off peer still believes it can stream.
	f.depth.Store(0)
	f.store.SetReplica(nil)
	f.promoted.Store(true)
	secs := time.Since(start).Seconds()
	f.mPromotions.Inc()
	f.mPromoSecs.Observe(secs)
	for _, r := range f.replicaList() {
		f.mLagBytes.Remove(r.name)
		f.mLagEntries.Remove(r.name)
		f.mLagSecs.Remove(r.name)
	}
	f.logf("repl: promoted to leader in %.3fs (%d collections rolled, was following %s)",
		secs, len(names), f.opt.Leader)
	return nil
}
