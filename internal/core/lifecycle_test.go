package core

// Fake-clock tests for the round lifecycle state machine and the liveness
// tracker. Every deadline, grace window, and liveness threshold here is
// driven by FakeClock.Advance — zero time.Sleep-driven assertions.

import (
	"errors"
	"math"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/tensor"
)

var lifecycleEpoch = time.Unix(1_000_000, 0)

// lifecycleNode builds an in-memory node on a fake clock with parties
// registered.
func lifecycleNode(t *testing.T, id string, parties ...string) (*AggregatorNode, *FakeClock) {
	t.Helper()
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, id)
	clk := NewFakeClock(lifecycleEpoch)
	node.SetClock(clk)
	for _, p := range parties {
		node.Register(p)
	}
	return node, clk
}

// recoverLifecycleNode opens (or re-opens) a journaled node under dir and
// pins it to a fake clock.
func recoverLifecycleNode(t *testing.T, id, dir string, clk *FakeClock) (*AggregatorNode, *RecoveryInfo) {
	t.Helper()
	proxy, vendor := testTrust(t)
	cvm := provisionCVM(t, proxy, vendor, id)
	node, info, err := RecoverAggregatorNode(id, agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClock(clk)
	return node, info
}

func mustUpload(t *testing.T, node *AggregatorNode, round int, party string, v float64) {
	t.Helper()
	if err := node.Upload(round, party, tensor.Vector{v}, 1); err != nil {
		t.Fatalf("upload round %d party %s: %v", round, party, err)
	}
}

// A round still below quorum at its deadline is abandoned: it reports the
// typed error from every entry point instead of hanging the federation.
func TestLifecycleAbandonBelowQuorum(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lc1", "P1", "P2", "P3")
	node.SetQuorum(2)
	node.SetLifecycle(10*time.Second, time.Second)

	mustUpload(t, node, 1, "P1", 2)
	if ph := node.Phase(1); ph != PhaseOpen {
		t.Fatalf("phase = %v, want open", ph)
	}
	if node.Complete(1) || node.Abandoned(1) {
		t.Fatal("round neither complete nor abandoned yet")
	}

	clk.Advance(10 * time.Second)
	if ph := node.Phase(1); ph != PhaseAbandoned {
		t.Fatalf("phase after deadline = %v, want abandoned", ph)
	}
	if done, abandoned := node.RoundStatus(1); done || !abandoned {
		t.Fatalf("RoundStatus = (%v, %v), want (false, true)", done, abandoned)
	}
	if err := node.Upload(1, "P2", tensor.Vector{4}, 1); !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("late upload err = %v, want ErrRoundAbandoned", err)
	}
	if err := node.Aggregate(1); !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("aggregate err = %v, want ErrRoundAbandoned", err)
	}
	if _, err := node.Download(1, "P1"); !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("download err = %v, want ErrRoundAbandoned", err)
	}
	// Abandonment is terminal: even a later upload cannot resurrect it.
	clk.Advance(time.Hour)
	if err := node.Upload(1, "P3", tensor.Vector{6}, 1); !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("much later upload err = %v, want ErrRoundAbandoned", err)
	}
}

// During the post-quorum grace window stragglers are still accepted, and a
// round that reaches full participation seals immediately.
func TestLifecycleGraceAcceptsStragglerThenSealsFull(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lc2", "P1", "P2", "P3")
	node.SetQuorum(2)
	node.SetLifecycle(10*time.Second, 2*time.Second)

	mustUpload(t, node, 1, "P1", 1)
	mustUpload(t, node, 1, "P2", 3)
	if ph := node.Phase(1); ph != PhaseGrace {
		t.Fatalf("phase at quorum = %v, want grace", ph)
	}
	if node.Complete(1) {
		t.Fatal("round complete during grace; stragglers should still be welcome")
	}
	clk.Advance(time.Second) // inside the grace window
	mustUpload(t, node, 1, "P3", 5)
	if ph := node.Phase(1); ph != PhaseSealed {
		t.Fatalf("phase at full participation = %v, want sealed", ph)
	}
	if !node.Complete(1) {
		t.Fatal("fully-uploaded round should be complete without waiting out grace")
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	got, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-12 {
		t.Fatalf("fused = %v, want 3 (mean of 1,3,5)", got)
	}
}

// Once the grace window expires the round seals: stragglers are cut with a
// typed error, but identical retries of committed uploads stay idempotent.
func TestLifecycleStragglerCutAfterGrace(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lc3", "P1", "P2", "P3")
	node.SetQuorum(2)
	node.SetLifecycle(10*time.Second, time.Second)

	mustUpload(t, node, 1, "P1", 2)
	mustUpload(t, node, 1, "P2", 4)
	clk.Advance(time.Second) // grace expires
	if ph := node.Phase(1); ph != PhaseSealed {
		t.Fatalf("phase after grace = %v, want sealed", ph)
	}
	if !node.Complete(1) {
		t.Fatal("sealed round should report complete")
	}
	if err := node.Upload(1, "P3", tensor.Vector{9}, 1); !errors.Is(err, ErrStragglerCut) {
		t.Fatalf("straggler err = %v, want ErrStragglerCut", err)
	}
	// A party retrying its committed upload after an ambiguous failure is
	// still fine post-seal.
	if err := node.Upload(1, "P1", tensor.Vector{2}, 1); err != nil {
		t.Fatalf("idempotent retry post-seal: %v", err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	got, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-12 {
		t.Fatalf("fused = %v, want 3 (mean of 2,4 — straggler cut)", got)
	}
}

// With grace longer than the deadline, a round with quorum fuses at the
// deadline — the hard cut — without its stragglers.
func TestLifecycleSealsAtDeadlineWithQuorum(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lc4", "P1", "P2", "P3")
	node.SetQuorum(2)
	node.SetLifecycle(10*time.Second, time.Minute)

	clk.Advance(9 * time.Second) // round opens at first upload below
	mustUpload(t, node, 1, "P1", 2)
	mustUpload(t, node, 1, "P2", 4)
	if ph := node.Phase(1); ph != PhaseGrace {
		t.Fatalf("phase = %v, want grace", ph)
	}
	// openedAt is the first upload (t=9s), so the deadline lands at t=19s.
	clk.Advance(10 * time.Second)
	if ph := node.Phase(1); ph != PhaseSealed {
		t.Fatalf("phase at deadline = %v, want sealed (quorum was met)", ph)
	}
	if !node.Complete(1) {
		t.Fatal("round with quorum should complete at the deadline")
	}
}

// Zero grace seals at the instant quorum is reached.
func TestLifecycleZeroGraceSealsAtQuorum(t *testing.T) {
	node, _ := lifecycleNode(t, "agg-lc5", "P1", "P2", "P3")
	node.SetQuorum(2)
	node.SetLifecycle(10*time.Second, 0)

	mustUpload(t, node, 1, "P1", 2)
	mustUpload(t, node, 1, "P2", 4)
	if ph := node.Phase(1); ph != PhaseSealed {
		t.Fatalf("phase = %v, want sealed immediately at quorum", ph)
	}
	if err := node.Upload(1, "P3", tensor.Vector{9}, 1); !errors.Is(err, ErrStragglerCut) {
		t.Fatalf("err = %v, want ErrStragglerCut", err)
	}
}

// Without SetLifecycle the node keeps the legacy count-based semantics: no
// amount of elapsed time abandons or seals anything.
func TestLifecycleDisabledKeepsLegacyBehavior(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lc6")
	node.Register("P1")
	node.Register("P2")
	mustUpload(t, node, 1, "P1", 2)
	clk.Advance(240 * time.Hour)
	if node.Abandoned(1) {
		t.Fatal("no deadline configured; round must never abandon")
	}
	if node.Complete(1) {
		t.Fatal("1/2 uploads; round must not be complete")
	}
	mustUpload(t, node, 1, "P2", 4)
	if !node.Complete(1) {
		t.Fatal("all uploaded; round complete under legacy semantics")
	}
}

// Suspect is derived and ephemeral; evict is a journaled decision; a
// liveness signal readmits the party.
func TestLivenessSuspectEvictRejoin(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lv1", "P1", "P2", "P3")
	node.SetLiveness(3*time.Second, 8*time.Second)

	clk.Advance(2 * time.Second)
	for _, p := range []string{"P1", "P2"} {
		if _, err := node.Heartbeat(p); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second) // P3 silent for 3s now
	if got := node.Suspects(); len(got) != 1 || got[0] != "P3" {
		t.Fatalf("suspects = %v, want [P3]", got)
	}
	if node.NumParties() != 3 {
		t.Fatal("suspicion must not change membership")
	}

	clk.Advance(5 * time.Second) // P3 silent for 8s
	if evicted := node.Tick(); len(evicted) != 1 || evicted[0] != "P3" {
		t.Fatalf("Tick evicted %v, want [P3]", evicted)
	}
	if node.NumParties() != 3-1 {
		t.Fatalf("parties after evict = %d, want 2", node.NumParties())
	}
	if got := node.EvictedParties(); len(got) != 1 || got[0] != "P3" {
		t.Fatalf("evicted = %v, want [P3]", got)
	}
	// P1/P2 heartbeated at t=2s, so they are 6s silent — suspect but safe.
	if got := node.Suspects(); len(got) != 2 {
		t.Fatalf("suspects = %v, want [P1 P2]", got)
	}

	rejoined, err := node.Heartbeat("P3")
	if err != nil {
		t.Fatal(err)
	}
	if !rejoined {
		t.Fatal("heartbeat from an evicted party must report rejoin")
	}
	if node.NumParties() != 3 || len(node.EvictedParties()) != 0 {
		t.Fatal("rejoin must restore membership")
	}
	// A heartbeat from a never-registered party is still rejected.
	if _, err := node.Heartbeat("P9"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unknown-party heartbeat = %v, want ErrNotRegistered", err)
	}
}

// An upload from an evicted party readmits it the same way a heartbeat
// does (the rejoin is journaled before the upload record).
func TestLivenessUploadRejoinsEvicted(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lv2")
	node.Register("P1")
	node.Register("P2")
	node.SetLiveness(time.Second, 2*time.Second)
	if _, err := node.Heartbeat("P1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, err := node.Heartbeat("P1"); err != nil { // also reaps P2
		t.Fatal(err)
	}
	if got := node.EvictedParties(); len(got) != 1 || got[0] != "P2" {
		t.Fatalf("evicted = %v, want [P2]", got)
	}
	mustUpload(t, node, 1, "P2", 4)
	if node.NumParties() != 2 || len(node.EvictedParties()) != 0 {
		t.Fatal("upload from evicted party must rejoin it")
	}
}

// Eviction shrinks the quorum denominator: a round stalled at 2/3 with an
// all-parties quorum reaches quorum the moment the dead third is evicted,
// and fuses instead of hanging.
func TestLivenessEvictionUnblocksRound(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-lv3", "P1", "P2", "P3")
	node.SetLifecycle(time.Minute, time.Second)
	node.SetLiveness(3*time.Second, 8*time.Second)

	mustUpload(t, node, 1, "P1", 2)
	mustUpload(t, node, 1, "P2", 4)
	if node.Complete(1) {
		t.Fatal("2/3 with all-parties quorum: not complete")
	}
	// Keep P1/P2 alive just before the evict threshold, then cross it so
	// only P3 is stale when the reaper runs.
	clk.Advance(7 * time.Second)
	for _, p := range []string{"P1", "P2"} {
		if _, err := node.Heartbeat(p); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if evicted := node.Tick(); len(evicted) != 1 || evicted[0] != "P3" {
		t.Fatalf("Tick evicted %v, want [P3]", evicted)
	}
	// Membership is now {P1, P2}, both uploaded: sealed, ready to fuse.
	if done, abandoned := node.RoundStatus(1); !done || abandoned {
		t.Fatalf("RoundStatus after evict = (%v, %v), want (true, false)", done, abandoned)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
}

// Churn decisions survive crash-recovery: an evicted party stays evicted
// across a restart, a rejoin stays rejoined, and the fused rounds replay
// bit-identically alongside them.
func TestEvictRejoinSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := NewFakeClock(lifecycleEpoch)
	node, _ := recoverLifecycleNode(t, "agg-lvr", dir, clk)
	node.SetLiveness(3*time.Second, 8*time.Second)
	for _, p := range []string{"P1", "P2", "P3"} {
		node.Register(p)
	}
	node.SetQuorum(2)
	mustUpload(t, node, 1, "P1", 2)
	mustUpload(t, node, 1, "P2", 4)
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	want, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(7 * time.Second)
	for _, p := range []string{"P1", "P2"} {
		if _, err := node.Heartbeat(p); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if evicted := node.Tick(); len(evicted) != 1 || evicted[0] != "P3" {
		t.Fatalf("Tick evicted %v, want [P3]", evicted)
	}
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: the eviction survived; the fused round replays bit-identically.
	node2, info := recoverLifecycleNode(t, "agg-lvr", dir, NewFakeClock(lifecycleEpoch))
	if node2.NumParties() != 2 || info.Evicted != 1 {
		t.Fatalf("recovered %d parties / %d evicted, want 2 / 1", node2.NumParties(), info.Evicted)
	}
	if got := node2.EvictedParties(); len(got) != 1 || got[0] != "P3" {
		t.Fatalf("recovered evicted = %v, want [P3]", got)
	}
	got, err := node2.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !fragEqual(got, want) {
		t.Fatalf("recovered fused vector %v != pre-crash %v", got, want)
	}
	// P3 comes back: the rejoin is journaled too.
	if rejoined, err := node2.Heartbeat("P3"); err != nil || !rejoined {
		t.Fatalf("rejoin = (%v, %v)", rejoined, err)
	}
	if err := node2.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Restart 2: the rejoin survived.
	node3, info := recoverLifecycleNode(t, "agg-lvr", dir, NewFakeClock(lifecycleEpoch))
	if node3.NumParties() != 3 || info.Evicted != 0 {
		t.Fatalf("recovered %d parties / %d evicted, want 3 / 0", node3.NumParties(), info.Evicted)
	}
	if err := node3.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// The acceptance criterion: an aggregator killed between suspect and evict
// replays its WAL to the same membership and round state it would have
// reached uncrashed — suspicion is never journaled, so the crash changes
// nothing.
func TestCrashBetweenSuspectAndEvictReplaysSameState(t *testing.T) {
	dir := t.TempDir()
	clk := NewFakeClock(lifecycleEpoch)
	node, _ := recoverLifecycleNode(t, "agg-sus", dir, clk)
	control, controlClk := lifecycleNode(t, "agg-sus-control") // identical run, no crash

	drive := func(n *AggregatorNode, c *FakeClock) {
		n.SetLifecycle(time.Minute, time.Second)
		n.SetLiveness(3*time.Second, 8*time.Second)
		for _, p := range []string{"P1", "P2", "P3"} {
			n.Register(p)
		}
		n.SetQuorum(2)
		mustUpload(t, n, 1, "P1", 2)
		mustUpload(t, n, 1, "P2", 4)
		if err := n.Aggregate(1); err != nil {
			t.Fatal(err)
		}
		// Push P3 into suspect territory — but not past evictAfter.
		c.Advance(5 * time.Second)
		for _, p := range []string{"P1", "P2"} {
			if _, err := n.Heartbeat(p); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.Suspects(); len(got) != 1 || got[0] != "P3" {
			t.Fatalf("suspects = %v, want [P3]", got)
		}
		if evicted := n.Tick(); len(evicted) != 0 {
			t.Fatalf("Tick evicted %v before evictAfter", evicted)
		}
	}
	drive(node, clk)
	drive(control, controlClk)
	if err := node.CloseJournal(); err != nil { // kill between suspect and evict
		t.Fatal(err)
	}

	recovered, info := recoverLifecycleNode(t, "agg-sus", dir, NewFakeClock(lifecycleEpoch))
	if recovered.NumParties() != control.NumParties() {
		t.Fatalf("recovered %d parties, uncrashed has %d", recovered.NumParties(), control.NumParties())
	}
	if info.Evicted != 0 || len(recovered.EvictedParties()) != 0 {
		t.Fatalf("suspicion leaked into the WAL: recovered evicted=%v", recovered.EvictedParties())
	}
	wantFrag, err := control.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	gotFrag, err := recovered.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !fragEqual(gotFrag, wantFrag) {
		t.Fatalf("round state diverged: %v vs %v", gotFrag, wantFrag)
	}
	if recovered.LastAggregatedRound() != control.LastAggregatedRound() {
		t.Fatal("lastAggregated diverged")
	}
	// And the suspect itself is still a full member on both.
	mustUpload(t, recovered, 2, "P3", 9)
	mustUpload(t, control, 2, "P3", 9)
	if err := recovered.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// recEvict/recRejoin interleaved with recQuorum and retention eviction:
// replay reproduces the live node's observable state exactly.
func TestReplayEvictRejoinInterleavedWithQuorumRetention(t *testing.T) {
	dir := t.TempDir()
	clk := NewFakeClock(lifecycleEpoch)
	node, _ := recoverLifecycleNode(t, "agg-ilv", dir, clk)
	node.SetLiveness(3*time.Second, 8*time.Second)
	for _, p := range []string{"P1", "P2", "P3"} {
		node.Register(p)
	}
	node.SetQuorum(2)

	// Round 1: all three, fused. Round 2: P3 already silent, fused at quorum.
	for _, p := range []string{"P1", "P2", "P3"} {
		mustUpload(t, node, 1, p, 1)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	mustUpload(t, node, 2, "P1", 2)
	mustUpload(t, node, 2, "P2", 4)
	if err := node.Aggregate(2); err != nil {
		t.Fatal(err)
	}
	// Evict P3 (silent 8s), then tighten quorum and retention afterwards —
	// the replay must apply these in log order to converge.
	clk.Advance(7 * time.Second)
	for _, p := range []string{"P1", "P2"} {
		if _, err := node.Heartbeat(p); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if evicted := node.Tick(); len(evicted) != 1 {
		t.Fatalf("evicted %v", evicted)
	}
	node.SetQuorum(0)    // all (remaining) parties
	node.SetRetention(1) // evicts round 1 from memory
	mustUpload(t, node, 3, "P1", 3)
	mustUpload(t, node, 3, "P2", 5)
	if err := node.Aggregate(3); err != nil {
		t.Fatal(err)
	}
	// P3 rejoins via upload and participates in round 4.
	mustUpload(t, node, 4, "P3", 7)
	mustUpload(t, node, 4, "P1", 1)
	mustUpload(t, node, 4, "P2", 1)
	if err := node.Aggregate(4); err != nil {
		t.Fatal(err)
	}
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	recovered, info := recoverLifecycleNode(t, "agg-ilv", dir, NewFakeClock(lifecycleEpoch))
	if recovered.NumParties() != node.NumParties() {
		t.Fatalf("parties: recovered %d, live %d", recovered.NumParties(), node.NumParties())
	}
	if info.Evicted != 0 {
		t.Fatalf("info.Evicted = %d, want 0 (P3 rejoined)", info.Evicted)
	}
	if recovered.RoundsHeld() != node.RoundsHeld() {
		t.Fatalf("rounds held: recovered %d, live %d (retention must replay)", recovered.RoundsHeld(), node.RoundsHeld())
	}
	if recovered.LastAggregatedRound() != node.LastAggregatedRound() {
		t.Fatal("lastAggregated diverged")
	}
	// Retention 1 means only round 4 is still held; its fused vector must
	// replay bit-identically.
	want, err := node.Download(4, "P1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.Download(4, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !fragEqual(got, want) {
		t.Fatalf("round 4 fused vector diverged: %v vs %v", got, want)
	}
	if err := recovered.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// Rejoin after snapshot compaction: the eviction rides the snapshot, the
// rejoin rides the post-snapshot log tail, and both survive a restart.
func TestRejoinAfterSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := NewFakeClock(lifecycleEpoch)
	node, _ := recoverLifecycleNode(t, "agg-cmp", dir, clk)
	node.SetCompactEvery(1) // compact on every mutation: evict lands in a snapshot
	node.SetLiveness(time.Second, 2*time.Second)
	node.Register("P1")
	node.Register("P2")
	clk.Advance(time.Second)
	if _, err := node.Heartbeat("P1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if evicted := node.Tick(); len(evicted) != 1 || evicted[0] != "P2" {
		t.Fatalf("evicted %v, want [P2]", evicted)
	}
	mustUpload(t, node, 1, "P1", 2) // forces a compaction cycle post-evict
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	node2, info := recoverLifecycleNode(t, "agg-cmp", dir, NewFakeClock(lifecycleEpoch))
	if info.Evicted != 1 || len(node2.EvictedParties()) != 1 {
		t.Fatalf("eviction lost in compaction: info=%d evicted=%v", info.Evicted, node2.EvictedParties())
	}
	// Rejoin lands after the snapshot; another compaction folds it in.
	if rejoined, err := node2.Heartbeat("P2"); err != nil || !rejoined {
		t.Fatalf("rejoin = (%v, %v)", rejoined, err)
	}
	mustUpload(t, node2, 1, "P2", 4)
	if err := node2.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	node3, info := recoverLifecycleNode(t, "agg-cmp", dir, NewFakeClock(lifecycleEpoch))
	if node3.NumParties() != 2 || info.Evicted != 0 {
		t.Fatalf("rejoin lost: %d parties, %d evicted", node3.NumParties(), info.Evicted)
	}
	if err := node3.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// Recovered rounds get a fresh deadline epoch: a round that was mid-flight
// at the crash is not instantly abandoned on restart, but the deadline
// still applies from the recovery instant.
func TestRecoveredRoundGetsFreshDeadline(t *testing.T) {
	dir := t.TempDir()
	clk := NewFakeClock(lifecycleEpoch)
	node, _ := recoverLifecycleNode(t, "agg-fresh", dir, clk)
	node.SetLifecycle(10*time.Second, time.Second)
	node.Register("P1")
	node.Register("P2")
	mustUpload(t, node, 1, "P1", 2) // 1/2: below quorum
	clk.Advance(9 * time.Second)    // one second from abandonment
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Restart far in the future (wall-clock-wise the journal is old, but
	// it carries no timestamps).
	clk2 := NewFakeClock(lifecycleEpoch.Add(time.Hour))
	node2, _ := recoverLifecycleNode(t, "agg-fresh", dir, clk2)
	node2.SetLifecycle(10*time.Second, time.Second)
	if node2.Abandoned(1) {
		t.Fatal("recovered round abandoned instantly; wanted a fresh deadline")
	}
	clk2.Advance(5 * time.Second)
	mustUpload(t, node2, 1, "P2", 4) // completes within the fresh window
	if !node2.Complete(1) {
		t.Fatal("round should complete after recovery")
	}
	clk2.Advance(10 * time.Second)
	mustUpload(t, node2, 2, "P1", 1)
	clk2.Advance(10 * time.Second) // fresh deadline still enforced
	if !node2.Abandoned(2) {
		t.Fatal("post-recovery rounds must still abandon at the deadline")
	}
	if err := node2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}
