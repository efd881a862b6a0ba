package core

// Unit tests for the round drivers. Every wait runs on a FakeClock that the
// test steps explicitly: no sleeps, and a driver that retries where it
// must not shows up as an armed clock waiter instead of a hung test.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deta/internal/tensor"
)

// pendingWaiters reports how many After channels are armed and unfired.
func (c *FakeClock) pendingWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// advanceUntil steps clk by step whenever some goroutine waits on it, until
// cond holds. The wall-clock bound only turns a broken driver into a test
// failure instead of a hang.
func advanceUntil(t *testing.T, clk *FakeClock, step time.Duration, cond func() bool) {
	t.Helper()
	limit := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(limit) {
			t.Fatal("condition not reached")
		}
		if clk.pendingWaiters() > 0 {
			clk.Advance(step)
		} else {
			runtime.Gosched()
		}
	}
}

// noRetry runs op and fails the test if it arms a wait on clk — the
// driver's retry backoff — before returning.
func noRetry(t *testing.T, clk *FakeClock, op func() error) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- op() }()
	limit := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-res:
			return err
		default:
		}
		if clk.pendingWaiters() > 0 {
			t.Fatal("driver armed a retry wait")
		}
		if time.Now().After(limit) {
			t.Fatal("driver did not return")
		}
		runtime.Gosched()
	}
}

// flakyClient serves node over an in-memory listener through a client
// whose (re)dials fail while down is set, counting every dial.
func flakyClient(t *testing.T, node *AggregatorNode, startDown bool) (c *AggregatorClient, down *atomic.Bool, dials *atomic.Int32) {
	t.Helper()
	_, ln := serveMem(t, node)
	down, dials = new(atomic.Bool), new(atomic.Int32)
	down.Store(startDown)
	c = &AggregatorClient{ID: node.ID, Redial: func(context.Context) (net.Conn, error) {
		dials.Add(1)
		if down.Load() {
			return nil, errors.New("aggregator down")
		}
		return ln.Dial()
	}}
	return c, down, dials
}

// testPartyDriver is a one-aggregator driver for party P1 on clk.
func testPartyDriver(t *testing.T, client *AggregatorClient, clk *FakeClock) *PartyDriver {
	t.Helper()
	mapper, err := NewMapper(len(driverUpdate), EqualProportions(1), []byte("driver-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	return &PartyDriver{
		ID: "P1", Fleet: &Fleet{Clients: []*AggregatorClient{client}, Clock: clk},
		Mapper: mapper, Shuffler: testShuffler(t), Shuffle: true, RoundTimeout: time.Hour,
	}
}

// driverUpdate is the model update every driver test uploads.
var driverUpdate = tensor.Vector{1.5, -2, 0.25, 3, -0.5, 8, -1, 0}

func TestPartyDriverRedrivesFailingUpload(t *testing.T) {
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-pd1")
	node.Register("P1")
	client, down, dials := flakyClient(t, node, true)
	clk := NewFakeClock(lifecycleEpoch)
	d := testPartyDriver(t, client, clk)

	var frags []tensor.Vector
	errc := make(chan error, 1)
	go func() {
		var err error
		frags, err = d.Upload(context.Background(), 1, []byte("round-1"), driverUpdate, 2)
		errc <- err
	}()
	// Two failed fan-outs, each followed by a backoff wait; then the
	// aggregator comes back and the third attempt lands.
	advanceUntil(t, clk, stepRetryMax, func() bool { return dials.Load() >= 3 })
	down.Store(false)
	advanceUntil(t, clk, stepRetryMax, func() bool { return len(node.LeakRoundFragments(1)) == 1 })
	if err := <-errc; err != nil {
		t.Fatalf("upload after recovery: %v", err)
	}
	if got := node.LeakRoundFragments(1)["P1"]; !fragEqual(got, frags[0]) {
		t.Fatalf("aggregator holds %v, party uploaded %v", got, frags[0])
	}
}

func TestPartyDriverDoesNotRetryAbandonedRound(t *testing.T) {
	node, nodeClk := lifecycleNode(t, "agg-pd2", "P1", "P2")
	node.SetLifecycle(10*time.Second, time.Second)
	mustUpload(t, node, 1, "P2", 1) // opens round 1, below quorum
	nodeClk.Advance(11 * time.Second)
	client, _, _ := flakyClient(t, node, false)
	clk := NewFakeClock(lifecycleEpoch)
	d := testPartyDriver(t, client, clk)

	err := noRetry(t, clk, func() error {
		_, err := d.Upload(context.Background(), 1, []byte("round-1"), driverUpdate, 2)
		return err
	})
	if !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("upload into an abandoned round: %v, want ErrRoundAbandoned", err)
	}
	err = noRetry(t, clk, func() error {
		_, err := d.Download(context.Background(), 1, []byte("round-1"), nil)
		return err
	})
	if !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("download of an abandoned round: %v, want ErrRoundAbandoned", err)
	}
}

func TestPartyDriverDoesNotRetryFailedVerification(t *testing.T) {
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-pd3")
	newProvisionedNode(t, proxy, vendor, "agg-other")
	client, _, _ := flakyClient(t, node, false)
	clk := NewFakeClock(lifecycleEpoch)
	d := testPartyDriver(t, client, clk)

	// The AP hands out another aggregator's token key: the answering
	// aggregator cannot prove possession of it.
	err := noRetry(t, clk, func() error {
		return d.Join(context.Background(), func(string) ([]byte, error) { return proxy.TokenPubKey("agg-other") })
	})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("join against an impostor: %v, want ErrVerificationFailed", err)
	}
	if node.NumParties() != 0 {
		t.Fatal("party registered with an aggregator it could not verify")
	}
}

// startInitiator runs in.Run on its own goroutine; the returned stop
// cancels it and fails the test unless Run returns promptly.
func startInitiator(t *testing.T, in *Initiator, startRound int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Run(ctx, startRound)
	}()
	return func() {
		t.Helper()
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Initiator.Run did not exit on context cancellation")
		}
	}
}

// A restarted initiator resumes its own node at startRound and its
// followers one round earlier: the crash may have cut that round's
// follower sync short.
func TestInitiatorRunResumesAtStartRound(t *testing.T) {
	lead, clk := lifecycleNode(t, "agg-in1", "P1")
	follower, _ := lifecycleNode(t, "agg-in1f", "P1")
	for _, n := range []*AggregatorNode{lead, follower} {
		for r := 1; r <= 3; r++ {
			mustUpload(t, n, r, "P1", float64(r))
		}
	}
	if err := lead.Aggregate(2); err != nil { // fused before the crash; the follower never heard
		t.Fatal(err)
	}
	client, _, _ := flakyClient(t, follower, false)
	stop := startInitiator(t, &Initiator{Node: lead, Followers: []*AggregatorClient{client}}, 3)
	defer stop()
	advanceUntil(t, clk, syncPoll, func() bool { return follower.LastAggregatedRound() == 3 })
	if _, err := follower.Download(2, "P1"); err != nil {
		t.Fatalf("follower's round 2 was not re-driven: %v", err)
	}
	for _, n := range []*AggregatorNode{lead, follower} {
		if _, err := n.Download(1, "P1"); !errors.Is(err, ErrNotAggregated) {
			t.Fatalf("%s: round 1, before the resume point, was touched: %v", n.ID, err)
		}
	}
}

func TestInitiatorRunSkipsAbandonedRound(t *testing.T) {
	node, clk := lifecycleNode(t, "agg-in2", "P1", "P2")
	node.SetLifecycle(10*time.Second, time.Second)
	mustUpload(t, node, 1, "P1", 1) // round 1 never reaches quorum
	stop := startInitiator(t, &Initiator{Node: node}, 1)
	defer stop()
	advanceUntil(t, clk, syncPoll, func() bool { return node.Abandoned(1) })
	mustUpload(t, node, 2, "P1", 2)
	mustUpload(t, node, 2, "P2", 4)
	advanceUntil(t, clk, syncPoll, func() bool { return node.LastAggregatedRound() == 2 })
	if _, err := node.Download(1, "P1"); !errors.Is(err, ErrRoundAbandoned) {
		t.Fatalf("round 1: %v, want ErrRoundAbandoned", err)
	}
}

func TestInitiatorRunRedrivesFailingFollower(t *testing.T) {
	lead, clk := lifecycleNode(t, "agg-in3", "P1")
	follower, _ := lifecycleNode(t, "agg-in4", "P1")
	mustUpload(t, lead, 1, "P1", 1)
	mustUpload(t, follower, 1, "P1", 1)
	client, down, dials := flakyClient(t, follower, true)
	stop := startInitiator(t, &Initiator{Node: lead, Followers: []*AggregatorClient{client}}, 1)
	defer stop()
	advanceUntil(t, clk, followerRetry, func() bool { return dials.Load() >= 2 })
	if follower.LastAggregatedRound() != 0 {
		t.Fatal("unreachable follower fused")
	}
	down.Store(false)
	advanceUntil(t, clk, followerRetry, func() bool { return follower.LastAggregatedRound() == 1 })
	if lead.LastAggregatedRound() != 1 {
		t.Fatalf("initiator at round %d, want 1", lead.LastAggregatedRound())
	}
}

func TestInitiatorRunExitsOnCancel(t *testing.T) {
	lead, clk := lifecycleNode(t, "agg-in5")
	follower, _ := lifecycleNode(t, "agg-in6")
	client, _, _ := flakyClient(t, follower, true) // stays down
	stop := startInitiator(t, &Initiator{Node: lead, Followers: []*AggregatorClient{client}}, 1)
	advanceUntil(t, clk, syncPoll, func() bool { return clk.pendingWaiters() >= 2 })
	stop()
}
