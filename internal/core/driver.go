package core

// driver.go: the one copy of the DeTA round protocol (paper §4.1). A
// party's side is Trans → upload to the K aggregators → download → Trans⁻¹
// (PartyDriver); the aggregators' side is the initiator/follower training
// synchronization (Initiator). deta-party, deta-aggregator, Session and the
// end-to-end tests all run these drivers over the RPC client surface
// (Fleet, AggregatorClient), so the code the tests check is the code that
// ships.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deta/internal/attest"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Retry and poll schedules. They are constants, not knobs: every wait runs
// on the Clock seam, so tests step them with a FakeClock instead of tuning
// them.
const (
	stepRetryInitial = 20 * time.Millisecond  // first party re-drive backoff
	stepRetryMax     = time.Second            // party re-drive backoff cap
	syncPoll         = 20 * time.Millisecond  // initiator completeness poll
	followerRetry    = 200 * time.Millisecond // pause after a failed follower sync

	downloadPollInitial = 2 * time.Millisecond   // first Fleet.DownloadAll re-poll of an unfused round
	downloadPollMax     = 250 * time.Millisecond // Fleet.DownloadAll re-poll backoff cap
)

// PartyDriver runs one party's side of DeTA rounds against the fleet.
// Every step is safe to re-drive after an ambiguous failure: Phase II
// re-registers idempotently, uploads are idempotent server-side, and
// downloads are reads — so a crashed-and-restarted aggregator (journal
// recovery plus AggregatorClient.Redial) is simply retried into.
type PartyDriver struct {
	ID       string
	Fleet    *Fleet
	Mapper   *Mapper
	Shuffler *Shuffler
	// Shuffle applies the per-round parameter shuffle on top of the
	// partition (a full DeTA deployment; off is partition-only).
	Shuffle bool
	// RoundTimeout bounds how long one failing step is re-driven, with
	// jittered backoff on the fleet's clock. Zero makes every step a
	// single attempt bounded only by the caller's context.
	RoundTimeout time.Duration
	// Logf, when non-nil, reports each re-driven failure.
	Logf func(format string, args ...any)
}

// Join runs Phase II against every aggregator: challenge-response
// verification against the AP's token key, then registration. A failed
// verification is never retried — an aggregator that answers but cannot
// prove token possession is an adversary, not a straggler.
func (p *PartyDriver) Join(ctx context.Context, tokenPubKey func(aggID string) ([]byte, error)) error {
	return p.redrive(ctx, "phase II", func(ctx context.Context) error {
		return p.Fleet.VerifyAndRegisterAll(ctx, p.ID, tokenPubKey, attest.NewNonce, attest.VerifyChallenge)
	})
}

// Upload transforms update into one fragment per aggregator and uploads
// fragment j to aggregator j, re-driving the whole fan-out until it
// succeeds or RoundTimeout expires. It returns the fragments for Download,
// which uses them as the quorum fallback; on error they are already back
// in the tensor pool. A round the fleet abandoned fails with
// ErrRoundAbandoned, unretried, so the caller can skip it.
func (p *PartyDriver) Upload(ctx context.Context, round int, roundID []byte, update tensor.Vector, weight float64) ([]tensor.Vector, error) {
	frags, err := Transform(p.Mapper, p.Shuffler, update, roundID, p.Shuffle)
	if err != nil {
		return nil, err
	}
	err = p.redrive(ctx, fmt.Sprintf("round %d upload", round), func(ctx context.Context) error {
		return p.Fleet.UploadAll(ctx, round, p.ID, frags, weight)
	})
	if err != nil {
		putVectors(frags)
		return nil, err
	}
	return frags, nil
}

// Download fetches every aggregator's fused fragment for round, polling
// until the fleet has fused it, and reverses the transformation into the
// merged model. Under a fleet quorum, an aggregator lost for the round
// degrades to the party's own fragment from frags. frags — the fragments
// Upload returned, or nil for a catch-up download — go back to the tensor
// pool either way; the merged fragments may alias them, so only they do.
func (p *PartyDriver) Download(ctx context.Context, round int, roundID []byte, frags []tensor.Vector) (tensor.Vector, error) {
	defer putVectors(frags)
	var merged []tensor.Vector
	err := p.redrive(ctx, fmt.Sprintf("round %d download", round), func(ctx context.Context) error {
		var err error
		merged, err = p.Fleet.DownloadAll(ctx, round, p.ID, frags)
		return err
	})
	if err != nil {
		return nil, err
	}
	return InverseTransform(p.Mapper, p.Shuffler, merged, roundID, p.Shuffle)
}

// Round is one whole party round: Upload, then Download once the fleet has
// fused. It returns the merged model, or ErrRoundAbandoned when the fleet
// gave up on the round.
func (p *PartyDriver) Round(ctx context.Context, round int, roundID []byte, update tensor.Vector, weight float64) (tensor.Vector, error) {
	frags, err := p.Upload(ctx, round, roundID, update, weight)
	if err != nil {
		return nil, err
	}
	return p.Download(ctx, round, roundID, frags)
}

// redrive runs op, re-running it with jittered backoff until it succeeds,
// RoundTimeout expires, or it fails in a way no retry can fix.
func (p *PartyDriver) redrive(ctx context.Context, what string, op func(context.Context) error) error {
	if p.RoundTimeout <= 0 {
		return op(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, p.RoundTimeout)
	defer cancel()
	clk := p.Fleet.clk()
	b := transport.Backoff{Initial: stepRetryInitial, Max: stepRetryMax}
	for i := 0; ; i++ {
		err := op(ctx)
		if err == nil || errors.Is(err, ErrVerificationFailed) || errors.Is(err, ErrRoundAbandoned) {
			return err
		}
		if p.Logf != nil {
			p.Logf("%s failed (retrying): %v", what, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w (last error: %v)", what, ctx.Err(), err)
		case <-clk.After(b.Delay(i)):
		}
	}
}

func putVectors(vs []tensor.Vector) {
	for _, v := range vs {
		tensor.PutVector(v)
	}
}

// Initiator is the inter-aggregator training synchronization (paper §4.1):
// the initiator fuses its own node once a round is complete there, then
// triggers every follower's fusion over RPC. Fusion is idempotent on both
// sides, so re-driving a round after any restart is safe. Waits run on the
// node's clock (SetClock; SystemClock by default).
type Initiator struct {
	Node      *AggregatorNode
	Followers []*AggregatorClient
	// PeerTimeout bounds Run's sync of one follower for one round (0 = only
	// the caller's context bounds it).
	PeerTimeout time.Duration
	// Logf, when non-nil, reports fused, skipped and failing rounds.
	Logf func(format string, args ...any)
}

// Fuse is one synchronous sync step, for callers that sequence their own
// rounds: it fuses round on the initiator's node, then on every follower
// concurrently. A round that is not complete yet fails with
// ErrRoundIncomplete instead of being waited for; a round the initiator
// abandoned fails with ErrRoundAbandoned; a follower that abandoned the
// round is skipped.
func (in *Initiator) Fuse(ctx context.Context, round int) error {
	complete, abandoned := in.Node.RoundStatus(round)
	if abandoned {
		return fmt.Errorf("%w: round %d at %s", ErrRoundAbandoned, round, in.Node.ID)
	}
	if !complete {
		return fmt.Errorf("%w: round %d at %s", ErrRoundIncomplete, round, in.Node.ID)
	}
	if err := in.Node.Aggregate(round); err != nil {
		return err
	}
	var g Group
	for _, f := range in.Followers {
		g.Go(func() error { return in.syncFollower(ctx, f, round, false) })
	}
	return g.Wait()
}

// Run is the daemon's sync loop from startRound until ctx ends. The
// initiator polls its node and fuses each round as soon as it is complete
// (or skips it once abandoned); every follower catches up on its own
// goroutine, so a slow or dead follower never stalls the healthy ones
// (parties degrade through their fleet quorum), while a follower that
// crashes and restarts is re-driven — not abandoned — until it has fused
// every round. A journal-recovered initiator passes
// Node.LastAggregatedRound()+1 as startRound to resume past the rounds it
// fused before the crash. Followers resume one round earlier: the crash
// may have cut that round's follower sync short, and re-fusing a fused
// round is a no-op.
func (in *Initiator) Run(ctx context.Context, startRound int) {
	if startRound < 1 {
		startRound = 1
	}
	// settled is the highest round the initiator has fused or skipped.
	var settled atomic.Int64
	settled.Store(int64(startRound - 1))
	var wg sync.WaitGroup
	for _, f := range in.Followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.follow(ctx, f, max(startRound-1, 1), &settled)
		}()
	}
	in.lead(ctx, startRound, &settled)
	wg.Wait()
}

// lead fuses the initiator's own node round by round.
func (in *Initiator) lead(ctx context.Context, round int, settled *atomic.Int64) {
	clk := in.Node.clk()
	for {
		switch complete, abandoned := in.Node.RoundStatus(round); {
		case abandoned:
			// Deadline passed below quorum: followers (whose own lifecycle
			// reaches the same verdict) and parties (typed
			// ErrRoundAbandoned) skip it too.
			in.logf("round %d abandoned below quorum; skipping", round)
		case !complete:
			if !pace(ctx, clk, syncPoll) {
				return
			}
			continue
		default:
			if err := in.Node.Aggregate(round); err != nil {
				in.logf("round %d: local aggregate: %v", round, err)
				if !pace(ctx, clk, syncPoll) {
					return
				}
				continue
			}
			in.logf("round %d fused locally; followers syncing", round)
		}
		settled.Store(int64(round))
		round++
	}
}

// follow drives one follower through every round the initiator settled.
func (in *Initiator) follow(ctx context.Context, f *AggregatorClient, round int, settled *atomic.Int64) {
	clk := in.Node.clk()
	failures := 0
	for {
		if int64(round) > settled.Load() {
			if !pace(ctx, clk, syncPoll) {
				return
			}
			continue
		}
		cctx, cancel := boundCtx(ctx, in.PeerTimeout)
		err := in.syncFollower(cctx, f, round, true)
		cancel()
		if err != nil {
			if failures++; failures == 1 || failures%50 == 0 {
				in.logf("round %d: follower %s: %v (retrying)", round, f.ID, err)
			}
			if !pace(ctx, clk, followerRetry) {
				return
			}
			continue
		}
		failures = 0
		round++
	}
}

// syncFollower triggers f's fusion of round once f reports it complete; a
// round f abandoned is skipped. With wait it polls until f is complete or
// ctx ends; without, an incomplete follower is an ErrRoundIncomplete.
func (in *Initiator) syncFollower(ctx context.Context, f *AggregatorClient, round int, wait bool) error {
	clk := in.Node.clk()
	for {
		done, abandoned, err := f.CompleteStatus(ctx, round)
		switch {
		case err != nil:
			return err
		case abandoned:
			return nil
		case done:
			return f.Aggregate(ctx, round)
		case !wait:
			return fmt.Errorf("%w: round %d at %s", ErrRoundIncomplete, round, f.ID)
		}
		if !pace(ctx, clk, syncPoll) {
			return fmt.Errorf("waiting for %s uploads: %w", f.ID, ctx.Err())
		}
	}
}

func (in *Initiator) logf(format string, args ...any) {
	if in.Logf != nil {
		in.Logf(format, args...)
	}
}

// pace waits d on clk, returning false when ctx ends first — the caller's
// loop must exit then, which is what makes the sync goroutines
// structurally stoppable.
func pace(ctx context.Context, clk Clock, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-clk.After(d):
		return true
	}
}
