package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// provisionCVM launches and provisions one CVM the way Session.Setup does,
// returning it so a "restarted process" can build a fresh node against the
// same journal.
func provisionCVM(t testing.TB, proxy *attest.Proxy, vendor *sev.Vendor, id string) *sev.CVM {
	t.Helper()
	platform, err := sev.NewPlatform("host/"+id, vendor)
	if err != nil {
		t.Fatal(err)
	}
	cvm, err := platform.LaunchCVM(OVMF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Provision(id, platform, cvm); err != nil {
		t.Fatal(err)
	}
	return cvm
}

func testTrust(t testing.TB) (*attest.Proxy, *sev.Vendor) {
	t.Helper()
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	return attest.NewProxy(vendor.RAS(), OVMF), vendor
}

// Satellite regression: an identical re-upload (the retry after an
// ambiguous RPC failure) succeeds silently; only a conflicting fragment —
// or the same fragment with a different weight — is a duplicate error.
func TestUploadIdempotentRetry(t *testing.T) {
	proxy, vendor := testTrust(t)
	cvm := provisionCVM(t, proxy, vendor, "agg-idem")
	node, err := NewAggregatorNode("agg-idem", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	frag := tensor.Vector{1.5, -2.25, 3}
	if err := node.Upload(1, "P1", frag, 4); err != nil {
		t.Fatal(err)
	}
	// Identical retry: success, and the stored fragment is unchanged.
	if err := node.Upload(1, "P1", frag.Clone(), 4); err != nil {
		t.Fatalf("identical re-upload rejected: %v", err)
	}
	if got := node.LeakRoundFragments(1)["P1"]; !fragEqual(got, frag) {
		t.Fatalf("retry mutated stored fragment: %v", got)
	}
	// Conflicting fragment: rejected.
	if err := node.Upload(1, "P1", tensor.Vector{9, 9, 9}, 4); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("conflicting re-upload = %v, want ErrDuplicateUpload", err)
	}
	// Same fragment, different weight: also a conflict.
	if err := node.Upload(1, "P1", frag, 5); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("weight-conflicting re-upload = %v, want ErrDuplicateUpload", err)
	}
}

func TestAggregateIdempotent(t *testing.T) {
	proxy, vendor := testTrust(t)
	cvm := provisionCVM(t, proxy, vendor, "agg-re")
	node, err := NewAggregatorNode("agg-re", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	if err := node.Upload(1, "P1", tensor.Vector{2, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	first, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	// A re-driven sync (initiator restarted) must be a no-op.
	if err := node.Aggregate(1); err != nil {
		t.Fatalf("re-aggregate: %v", err)
	}
	second, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !fragEqual(first, second) {
		t.Fatalf("re-aggregate changed the fused vector: %v vs %v", first, second)
	}
}

// The tentpole invariant: everything an aggregator acknowledged —
// registrations, fragments, the fused vector — survives a crash/restart
// via the journal, so parties can re-download after recovery.
func TestRecoverAggregatorNode(t *testing.T) {
	proxy, vendor := testTrust(t)
	dir := t.TempDir()

	cvm := provisionCVM(t, proxy, vendor, "agg-r")
	node, info, err := RecoverAggregatorNode("agg-r", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Parties != 0 || info.Rounds != 0 {
		t.Fatalf("fresh journal recovered state: %+v", info)
	}
	node.Register("P1")
	node.Register("P2")
	node.SetQuorum(2)
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Upload(1, "P2", tensor.Vector{3, 4}, 3); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	wantFused, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	// Round 2 in flight: one of two uploads when the crash hits.
	if err := node.Upload(2, "P1", tensor.Vector{5, 6}, 1); err != nil {
		t.Fatal(err)
	}

	// "Crash": drop the node, restart from the journal with a freshly
	// attested CVM (trust state is re-established by Phase I, round state
	// by the journal).
	node.CloseJournal()
	cvm2 := provisionCVM(t, proxy, vendor, "agg-r2")
	node2, info, err := RecoverAggregatorNode("agg-r", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Parties != 2 || info.Rounds != 2 || info.Aggregated != 1 || info.LastAggregated != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
	if got := node2.NumParties(); got != 2 {
		t.Fatalf("recovered %d parties", got)
	}
	// The aggregated round is re-downloadable, bit-identical.
	got, err := node2.Download(1, "P2")
	if err != nil {
		t.Fatalf("download after recovery: %v", err)
	}
	if !fragEqual(got, wantFused) {
		t.Fatalf("recovered fused vector %v, want %v", got, wantFused)
	}
	// The in-flight round resumes: P1's fragment survived, P2 completes it.
	if node2.Complete(2) {
		t.Fatal("half-uploaded round reported complete after recovery")
	}
	if err := node2.Upload(2, "P1", tensor.Vector{5, 6}, 1); err != nil {
		t.Fatalf("identical re-upload after recovery: %v", err)
	}
	if err := node2.Upload(2, "P2", tensor.Vector{7, 8}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node2.Aggregate(2); err != nil {
		t.Fatal(err)
	}
	if node2.LastAggregatedRound() != 2 {
		t.Fatalf("last aggregated = %d, want 2", node2.LastAggregatedRound())
	}
	node2.CloseJournal()
}

// Compaction must preserve recoverability while keeping the log short: a
// node that compacted (snapshot+truncate) recovers the same state, and the
// crash window between snapshot rename and log truncation (old records
// replayed on top of the snapshot that contains them) is harmless.
func TestRecoverAfterCompaction(t *testing.T) {
	proxy, vendor := testTrust(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, proxy, vendor, "agg-c")
	node, _, err := RecoverAggregatorNode("agg-c", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.SetCompactEvery(8) // force frequent compaction
	node.Register("P1")
	const rounds = 20
	for r := 1; r <= rounds; r++ {
		if err := node.Upload(r, "P1", tensor.Vector{float64(r), float64(2 * r)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
	}
	node.CloseJournal()

	// The log must have been truncated along the way.
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err != nil || fi.Size() == 0 {
		t.Fatalf("no compaction snapshot written: %v", err)
	}

	cvm2 := provisionCVM(t, proxy, vendor, "agg-c2")
	node2, info, err := RecoverAggregatorNode("agg-c", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != rounds || info.Aggregated != rounds {
		t.Fatalf("recovered %d rounds (%d aggregated), want %d", info.Rounds, info.Aggregated, rounds)
	}
	for r := 1; r <= rounds; r++ {
		got, err := node2.Download(r, "P1")
		if err != nil {
			t.Fatalf("round %d after compacted recovery: %v", r, err)
		}
		if want := (tensor.Vector{float64(r), float64(2 * r)}); !fragEqual(got, want) {
			t.Fatalf("round %d = %v, want %v", r, got, want)
		}
	}
	node2.CloseJournal()
}

// A crash mid-append leaves a torn journal tail; the node must recover to
// the last committed record, flag it, and keep serving.
func TestRecoverTornJournalTail(t *testing.T) {
	proxy, vendor := testTrust(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, proxy, vendor, "agg-t")
	node, _, err := RecoverAggregatorNode("agg-t", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	node.CloseJournal()

	// Tear the tail: append half a garbage frame.
	logPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x02, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cvm2 := provisionCVM(t, proxy, vendor, "agg-t2")
	node2, info, err := RecoverAggregatorNode("agg-t", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatalf("torn tail made recovery fail: %v", err)
	}
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if got := node2.LeakRoundFragments(1)["P1"]; !fragEqual(got, tensor.Vector{1, 2}) {
		t.Fatalf("committed upload lost under torn tail: %v", got)
	}
	if err := node2.Upload(1, "P2", tensor.Vector{9, 9}, 1); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unexpected: %v", err) // P2 never registered; sanity that serving continues
	}
	node2.CloseJournal()
}

// Satellite: with a retention bound, the rounds map does not grow without
// bound over 100 rounds — and evicted rounds are still in the journal.
func TestRetentionBoundsMemoryOver100Rounds(t *testing.T) {
	proxy, vendor := testTrust(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, proxy, vendor, "agg-m")
	node, _, err := RecoverAggregatorNode("agg-m", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const retain = 5
	node.SetRetention(retain)
	node.Register("P1")
	for r := 1; r <= 100; r++ {
		if err := node.Upload(r, "P1", tensor.Vector{float64(r)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
		if held := node.RoundsHeld(); held > retain {
			t.Fatalf("round %d: %d rounds in memory, retention %d", r, held, retain)
		}
	}
	// Old rounds are gone from memory...
	if _, err := node.Download(1, "P1"); !errors.Is(err, ErrNotAggregated) {
		t.Fatalf("evicted round still in memory: %v", err)
	}
	// ...recent ones are not.
	if got, err := node.Download(100, "P1"); err != nil || !fragEqual(got, tensor.Vector{100}) {
		t.Fatalf("retained round: %v, %v", got, err)
	}
	node.CloseJournal()

	// Recovery replays to the same bounded state, not 100 rounds.
	cvm2 := provisionCVM(t, proxy, vendor, "agg-m2")
	node2, info, err := RecoverAggregatorNode("agg-m", agg.IterativeAverage{}, cvm2, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds > retain {
		t.Fatalf("recovery rebuilt %d rounds despite retention %d", info.Rounds, retain)
	}
	if node2.LastAggregatedRound() != 100 {
		t.Fatalf("last aggregated after recovery = %d", node2.LastAggregatedRound())
	}
	node2.CloseJournal()
}

// Session-level wiring: a StateDir session journals every aggregator and a
// retention bound keeps their memory flat across the run.
func TestSessionStateDirAndRetention(t *testing.T) {
	s := newTinySession(t, 2, true)
	s.Opts.StateDir = t.TempDir()
	s.Opts.JournalNoSync = true
	s.Opts.RetainRounds = 2
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, node := range s.Nodes {
		if node.JournalDir() == "" {
			t.Fatalf("aggregator %s has no journal", node.ID)
		}
		if held := node.RoundsHeld(); held > 2 {
			t.Fatalf("aggregator %s holds %d rounds, retention 2", node.ID, held)
		}
		if _, err := os.Stat(filepath.Join(node.JournalDir(), "wal.log")); err != nil {
			t.Fatalf("aggregator %s journal missing: %v", node.ID, err)
		}
	}
}

// DownloadAll's poll honors context cancellation: a cancelled party
// returns promptly instead of sleeping out its backoff. The fleet's clock
// never advances, so once DownloadAll is parked in its backoff wait the
// only way out is the cancellation.
func TestDownloadAllCancellationPrompt(t *testing.T) {
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-cancel")
	node.Register("P1")
	// Never aggregated: DownloadAll polls until cancelled.
	client := serveNode(t, node)
	clk := NewFakeClock(time.Unix(0, 0))
	fleet := &Fleet{Clients: []*AggregatorClient{client}, Clock: clk}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan error, 1)
	go func() {
		_, err := fleet.DownloadAll(ctx, 1, "P1", nil)
		res <- err
	}()
	limit := time.Now().Add(10 * time.Second)
	for clk.pendingWaiters() == 0 {
		if time.Now().After(limit) {
			t.Fatal("DownloadAll never parked in its poll backoff")
		}
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("cancelled DownloadAll succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DownloadAll did not return after cancellation: poll not honoring ctx")
	}
}

// DownloadAll's backoff must still deliver promptly once the round fuses.
func TestDownloadAllBackoffDelivers(t *testing.T) {
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-bk")
	node.Register("P1")
	client := serveNode(t, node)
	fleet := &Fleet{Clients: []*AggregatorClient{client}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		node.Upload(1, "P1", tensor.Vector{4, 8}, 1)
		node.Aggregate(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	frags, err := fleet.DownloadAll(ctx, 1, "P1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fragEqual(frags[0], tensor.Vector{4, 8}) {
		t.Fatalf("downloaded %v", frags[0])
	}
}

// A client with Redial configured survives its aggregator being killed and
// restarted on a fresh listener: the next call transparently reconnects.
func TestAggregatorClientRedial(t *testing.T) {
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-rd")
	node.Register("P1")

	serve := func() (*transport.Server, *transport.MemListener) {
		srv := transport.NewServer()
		ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		return srv, ln
	}
	srv, ln := serve()
	var mu sync.Mutex
	currentLn := ln

	client := &AggregatorClient{
		ID: "agg-rd",
		Redial: func(context.Context) (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			return currentLn.Dial()
		},
	}
	ctx := context.Background()
	// First call dials lazily.
	if err := client.Upload(ctx, 1, "P1", tensor.Vector{1}, 1); err != nil {
		t.Fatal(err)
	}
	// Kill and restart the aggregator server.
	srv.Close()
	srv2, ln2 := serve()
	defer srv2.Close()
	mu.Lock()
	currentLn = ln2
	mu.Unlock()

	// The old connection is dead; the call may fail once while the sticky
	// error is discovered, then the redial path must succeed.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = client.Upload(ctx, 1, "P1", tensor.Vector{1}, 1); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("upload after restart (with redial): %v", err)
	}
	client.C.Close()
}

// Regression: the compaction snapshot's slice-valued fields must not
// inherit Go's randomized map iteration order. Parties is built by ranging
// over the parties map; snapshotLocked must sort it so the bytes that
// reach the WAL are a pure function of node state.
func TestSnapshotPartiesSorted(t *testing.T) {
	proxy, vendor := testTrust(t)
	cvm := provisionCVM(t, proxy, vendor, "agg-snap")
	node, err := NewAggregatorNode("agg-snap", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	// Enough parties that an unsorted map range is effectively guaranteed
	// to betray itself across repeated snapshots.
	for i := 0; i < 40; i++ {
		node.Register(fmt.Sprintf("P%02d", i))
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	for trial := 0; trial < 5; trial++ {
		snap := node.snapshotLocked()
		if !sort.StringsAreSorted(snap.Parties) {
			t.Fatalf("trial %d: snapshot parties unsorted: %v", trial, snap.Parties)
		}
		if len(snap.Parties) != 40 {
			t.Fatalf("trial %d: %d parties, want 40", trial, len(snap.Parties))
		}
	}
}

// Regression for the WAL-before-ack ordering in upload (pinned by the
// waldisc analyzer): a failed durable append must leave no trace in
// memory. In particular the first upload of a new round must not create
// the round ahead of the journal write — the old code inserted it first
// and rolled it back on error, exactly the mutate-before-append shape
// waldisc rejects.
func TestUploadJournalFailureLeavesNoPhantomRound(t *testing.T) {
	proxy, vendor := testTrust(t)
	cvm := provisionCVM(t, proxy, vendor, "agg-wal")
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-wal", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	node.Register("P2")
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Kill the journal out from under the node: every later durable
	// append fails with journal.ErrClosed, as a full disk or torn-away
	// volume would fail it.
	node.mu.Lock()
	j := node.journal
	node.mu.Unlock()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// First upload of a NEW round: the error must surface and no phantom
	// round may appear.
	if err := node.Upload(2, "P1", tensor.Vector{3, 4}, 1); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("upload to new round with dead journal: err = %v, want journal.ErrClosed", err)
	}
	node.mu.Lock()
	_, phantom := node.rounds[2]
	node.mu.Unlock()
	if phantom {
		t.Fatal("failed journal append left a phantom round 2 in memory")
	}

	// Upload into the EXISTING round: the fragment must not be stored —
	// an acknowledged-in-memory fragment the journal never saw would
	// vanish on recovery.
	if err := node.Upload(1, "P2", tensor.Vector{9, 9}, 1); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("upload to existing round with dead journal: err = %v, want journal.ErrClosed", err)
	}
	node.mu.Lock()
	_, stored := node.rounds[1].fragments["P2"]
	node.mu.Unlock()
	if stored {
		t.Fatal("failed journal append left P2's fragment in memory")
	}
}

// Record types 2 and 3 — the pre-codec gob upload/aggregate records — are
// retired: a journal holding one fails recovery as an unknown record type
// instead of being replayed.
func TestRecoverRejectsRetiredRecordTypes(t *testing.T) {
	type legacyEvent struct {
		Party  string
		Round  int
		Frag   []float64
		Weight float64
	}
	proxy, vendor := testTrust(t)
	for _, typ := range []uint8{2, 3} {
		dir := t.TempDir()
		j, _, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodeWAL(legacyEvent{Party: "P1", Round: 1, Frag: []float64{1, 2}, Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(typ, data); err != nil {
			t.Fatal(err)
		}
		j.Close()
		cvm := provisionCVM(t, proxy, vendor, fmt.Sprintf("agg-retired-%d", typ))
		_, _, err = RecoverAggregatorNode("agg-retired", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
		if err == nil || !strings.Contains(err.Error(), "unknown record type") {
			t.Fatalf("record type %d: recovery = %v, want unknown record type", typ, err)
		}
	}
}
