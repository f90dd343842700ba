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
// fencing. Safe to call from the /promote handler and from the leader-loss
// watcher; exactly one caller wins, the rest get ErrPromotionInProgress /
// ErrAlreadyPromoted. A failed promotion (a snapshot error) leaves the node
// a non-replicating follower and may be retried.
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
	// frozen at its final replicated position. The leader-loss watcher is
	// deliberately NOT waited on — it may be the caller.
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
	f.store.SetFollower("")
	f.store.SetReadyCheck(nil)
	f.promoted.Store(true)
	secs := time.Since(start).Seconds()
	f.mPromotions.Inc()
	f.mPromoSecs.Observe(secs)
	f.mu.Lock()
	replicas := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		replicas = append(replicas, r)
	}
	f.mu.Unlock()
	for _, r := range replicas {
		f.mLagBytes.Remove(r.name)
		f.mLagEntries.Remove(r.name)
		f.mLagSecs.Remove(r.name)
	}
	f.logf("repl: promoted to leader in %.3fs (%d collections rolled, was following %s)",
		secs, len(names), f.opt.Leader)
	return nil
}

// noteContact records a successful exchange with the upstream — any
// response at all, whatever its status, proves the leader is alive.
func (f *Follower) noteContact() {
	f.lastContact.Store(time.Now().UnixNano())
}

// watchLeader is the -promote-on-leader-loss loop: when no request to the
// leader has succeeded for the loss window, the follower promotes itself.
// The window must comfortably exceed the collection-listing poll interval
// (the listing is the heartbeat — New enforces a floor). The watcher's
// lifetime is bound to Close (via watcherStop), not to the replication
// context — Promote cancels that context as its own first step, and the
// watcher must outlive it to retry a failed promotion.
func (f *Follower) watchLeader() {
	defer close(f.watcherDone)
	window := f.opt.LeaderLossWindow
	tick := window / 8
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.watcherStop:
			return
		case <-t.C:
		}
		if f.promoted.Load() || f.closing.Load() {
			return
		}
		if f.promoting.Load() {
			continue // a manual promotion is in flight; wait for its verdict
		}
		silent := time.Since(time.Unix(0, f.lastContact.Load()))
		if silent < window {
			continue
		}
		f.logf("repl: no leader contact for %v (loss window %v); promoting", silent.Round(time.Millisecond), window)
		switch err := f.Promote(); {
		case err == nil, errors.Is(err, ErrAlreadyPromoted), errors.Is(err, ErrPromotionInProgress):
			return
		default:
			// Promotion failed (e.g. a snapshot hit a disk error); keep
			// ticking and retry — the alternative is a permanently
			// write-dead deployment.
			f.logf("repl: automatic promotion failed (will retry): %v", err)
		}
	}
}
