package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/journal"
	"deta/internal/nn"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// OVMF is the firmware image all genuine aggregator CVMs boot in this
// reproduction; the AP expects its measurement.
var OVMF = []byte("deta-aggregator-firmware-v1: attested aggregation service build")

// Options configures a DeTA deployment.
type Options struct {
	// NumAggregators is K, the decentralization factor (the paper deploys
	// three).
	NumAggregators int
	// Proportions[j] is the fraction of parameters mapped to aggregator j;
	// nil means equal split.
	Proportions []float64
	// Shuffle enables dynamic parameter-level shuffling (on in a full DeTA
	// deployment; the security analysis also evaluates partition-only).
	Shuffle bool
	// MapperSeed seeds the shared model mapper; all parties must agree.
	MapperSeed []byte
	// PermKeyBytes sizes the broker's permutation key (default 32).
	PermKeyBytes int
	// Quorum, when positive, lets each aggregator fuse a round once that
	// many parties have uploaded, tolerating stragglers and dropouts
	// (paper §8.2 contrasts this flexibility with SMC cohort formation).
	Quorum int
	// AggQuorum, when positive, is the minimum number of *aggregators* a
	// networked party's fan-out must reach for a round to proceed; a dead
	// or stalled aggregator beyond the quorum degrades the round (missing
	// fragments fall back to the party's own update) instead of hanging
	// it. 0 requires all K. Consumed by Fleet (NewFleet); in-process
	// sessions have no failing aggregators.
	AggQuorum int
	// CallTimeout bounds each party→aggregator RPC in networked
	// deployments (0 = no per-call deadline). Consumed by Fleet.
	CallTimeout time.Duration
	// StateDir, when non-empty, gives every aggregator a durable round
	// journal under StateDir/<agg-id>: each accepted mutation is
	// committed to the write-ahead log before it is acknowledged, and
	// Setup recovers any existing journal so a restarted deployment
	// resumes its rounds instead of losing them.
	StateDir string
	// JournalNoSync skips the per-record fsync (process-crash durability
	// only; for tests and benchmarks).
	JournalNoSync bool
	// RetainRounds, when positive, evicts aggregated rounds older than N
	// from each aggregator's memory (the journal stays the durable
	// copy), and Run skips its explicit per-round DropRound in favor of
	// that policy.
	RetainRounds int
	// RoundDeadline, when positive, arms the per-round lifecycle state
	// machine on every aggregator: a round still below quorum after this
	// long is abandoned (typed ErrRoundAbandoned) instead of waiting
	// forever, and a round with quorum seals at the deadline without its
	// stragglers. See AggregatorNode.SetLifecycle.
	RoundDeadline time.Duration
	// RoundGrace is the post-quorum straggler window: once quorum is
	// reached, the round seals after min(RoundGrace, remaining deadline),
	// or immediately when every registered party has uploaded. Only
	// meaningful with RoundDeadline set.
	RoundGrace time.Duration
}

func (o *Options) defaults() {
	if o.NumAggregators == 0 {
		o.NumAggregators = 3
	}
	if o.Proportions == nil {
		o.Proportions = EqualProportions(o.NumAggregators)
	}
	if o.PermKeyBytes == 0 {
		o.PermKeyBytes = 32
	}
	if o.MapperSeed == nil {
		o.MapperSeed = []byte("deta-default-mapper-seed")
	}
}

// Session is the end-to-end in-process DeTA deployment: SEV-protected
// aggregator nodes, the attestation proxy, the key broker, and the party
// fleet. It mirrors fl.Session so experiments can compare the two directly.
type Session struct {
	Cfg      fl.Config
	Opts     Options
	Build    func() *nn.Network
	Parties  []*fl.Party
	Test     *dataset.Dataset
	InitSeed []byte
	// NewAlgorithm constructs one algorithm instance per aggregator (some
	// algorithms, like Paillier fusion, carry per-instance state).
	NewAlgorithm func() agg.Algorithm

	// Populated by Setup.
	Nodes    []*AggregatorNode
	Mapper   *Mapper
	Shuffler *Shuffler
	Broker   *attest.KeyBroker
	Proxy    *attest.Proxy

	// Clock is the session's time source (nil = SystemClock). It is
	// injected into every aggregator node and used for the session's own
	// latency accounting, so deadline behavior and timing metrics are
	// testable under a FakeClock without sleeping.
	Clock Clock

	// Availability, when non-nil, reports whether a party participates in
	// a round; absent parties neither train nor upload that round (they
	// still receive the aggregated model). Requires Opts.Quorum low
	// enough for the remaining parties to complete rounds.
	Availability func(partyID string, round int) bool

	// SetupLatency records the one-time trust-bootstrap cost (Phase I +
	// Phase II + registration), reported separately from training latency.
	SetupLatency time.Duration

	// FinalParams holds the global model parameters after Run completes.
	FinalParams tensor.Vector
}

// Setup performs the full trust bootstrap of Figure 1 steps 1-4:
//
//  1. launch one SEV CVM per aggregator and attest each via the AP,
//  2. provision authentication tokens into the CVMs,
//  3. have every party verify every aggregator (challenge-response) and
//     register,
//  4. distribute the permutation key and build the shared model mapper.
//
// clk returns the session's time source (SystemClock when none injected).
func (s *Session) clk() Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return SystemClock
}

func (s *Session) Setup() error {
	start := s.clk().Now()
	s.Opts.defaults()
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	if len(s.Parties) == 0 {
		return errors.New("core: no parties")
	}
	if s.NewAlgorithm == nil {
		return errors.New("core: NewAlgorithm is required")
	}

	// Vendor infrastructure and the party-controlled AP.
	vendor, err := sev.NewVendor()
	if err != nil {
		return err
	}
	s.Proxy = attest.NewProxy(vendor.RAS(), OVMF)

	// Phase I: launch and provision every aggregator.
	s.Nodes = make([]*AggregatorNode, s.Opts.NumAggregators)
	for j := 0; j < s.Opts.NumAggregators; j++ {
		// Each aggregator may run on its own physical platform
		// (geo-distributed per §4.1).
		platform, err := sev.NewPlatform(fmt.Sprintf("host-%d", j+1), vendor)
		if err != nil {
			return err
		}
		cvm, err := platform.LaunchCVM(OVMF)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("agg-%d", j+1)
		if _, err := s.Proxy.Provision(id, platform, cvm); err != nil {
			return fmt.Errorf("core: provisioning %s: %w", id, err)
		}
		var node *AggregatorNode
		if s.Opts.StateDir != "" {
			node, _, err = RecoverAggregatorNode(id, s.NewAlgorithm(), cvm,
				StateDirFor(s.Opts.StateDir, id), journal.Options{NoSync: s.Opts.JournalNoSync})
		} else {
			node, err = NewAggregatorNode(id, s.NewAlgorithm(), cvm)
		}
		if err != nil {
			return err
		}
		if s.Opts.RetainRounds > 0 {
			node.SetRetention(s.Opts.RetainRounds)
		}
		if s.Clock != nil {
			node.SetClock(s.Clock)
		}
		if s.Opts.RoundDeadline > 0 {
			node.SetLifecycle(s.Opts.RoundDeadline, s.Opts.RoundGrace)
		}
		s.Nodes[j] = node
	}

	// Phase II: every party verifies every aggregator, then registers.
	for _, p := range s.Parties {
		for _, node := range s.Nodes {
			pub, err := s.Proxy.TokenPubKey(node.ID)
			if err != nil {
				return err
			}
			nonce, err := attest.NewNonce()
			if err != nil {
				return err
			}
			sig, err := node.SignChallenge(nonce)
			if err != nil {
				return err
			}
			if err := attest.VerifyChallenge(pub, nonce, sig); err != nil {
				return fmt.Errorf("core: party %s rejects %s: %w", p.ID, node.ID, err)
			}
			node.Register(p.ID)
		}
	}

	// Key broker: permutation key for all parties.
	s.Broker, err = attest.NewKeyBroker(s.Opts.PermKeyBytes)
	if err != nil {
		return err
	}
	for _, p := range s.Parties {
		s.Broker.RegisterParty(p.ID)
	}
	permKey, err := s.Broker.PermutationKey(s.Parties[0].ID)
	if err != nil {
		return err
	}
	s.Shuffler, err = NewShuffler(permKey)
	if err != nil {
		return err
	}

	if s.Opts.Quorum > 0 {
		for _, node := range s.Nodes {
			node.SetQuorum(s.Opts.Quorum)
		}
	}

	// Shared model mapper, agreed by all parties before training.
	model := s.Build()
	s.Mapper, err = NewMapper(model.NumParams(), s.Opts.Proportions, s.Opts.MapperSeed)
	if err != nil {
		return err
	}
	s.SetupLatency = s.clk().Now().Sub(start)
	return nil
}

// Run executes training with the DeTA life cycle and returns the history.
// Setup is invoked automatically if it has not been run. Rounds run
// through the networked deployment's own drivers — each party's
// PartyDriver and node 0's Initiator — over in-memory RPC, so the latency
// the history reports includes the wire path. The servers are torn down
// when Run returns.
//
//lint:ignore ctxplumb Run mirrors fl.Session.Run; every RPC peer is an in-memory node this session owns and tears down on return, so there is no remote deadline to honor
func (s *Session) Run() (*fl.History, error) {
	if s.Nodes == nil {
		if err := s.Setup(); err != nil {
			return nil, err
		}
	}
	drivers, initiator, stop, err := s.serve()
	if err != nil {
		return nil, err
	}
	defer stop()
	//lint:ignore ctxplumb the in-process session is its own entry point: it owns both ends of every in-memory RPC it makes
	ctx := context.Background()

	net := s.Build()
	net.Init(s.InitSeed)
	global := net.Params()

	hist := &fl.History{System: "DETA"}
	var cum time.Duration
	for round := 1; round <= s.Cfg.Rounds; round++ {
		start := s.clk().Now()
		roundID, err := s.Broker.RoundID(round)
		if err != nil {
			return nil, err
		}
		// Initiator notifies parties to start local training; each party
		// transforms its update and uploads fragments to all aggregators.
		var trainLoss float64
		participants := 0
		for i, p := range s.Parties {
			if s.Availability != nil && !s.Availability(p.ID, round) {
				continue // dropped out this round
			}
			participants++
			update, loss, err := p.LocalUpdate(global, round)
			if err != nil {
				return nil, err
			}
			trainLoss += loss
			frags, err := drivers[i].Upload(ctx, round, roundID, update, float64(p.NumExamples()))
			if err != nil {
				return nil, err
			}
			putVectors(frags) // no fallback needed: in-memory aggregators never fail
		}
		if participants == 0 {
			return nil, fmt.Errorf("core: round %d has no available parties", round)
		}
		trainLoss /= float64(participants)

		// Initiator/follower synchronization, then the download: every
		// party merges the same model, so one download stands for all.
		if err := initiator.Fuse(ctx, round); err != nil {
			return nil, err
		}
		fused, err := drivers[0].Download(ctx, round, roundID, nil)
		if err != nil {
			return nil, err
		}
		global = s.applyUpdate(global, fused)
		if s.Opts.RetainRounds <= 0 {
			// No retention policy: free each round eagerly as before.
			for _, node := range s.Nodes {
				node.DropRound(round)
			}
		}
		cum += s.clk().Now().Sub(start)

		m := fl.RoundMetrics{Round: round, TrainLoss: trainLoss, Cumulative: cum}
		if s.Test != nil {
			m.TestLoss, m.Accuracy, err = fl.Evaluate(s.Build, global, s.Test)
			if err != nil {
				return nil, err
			}
		}
		hist.Rounds = append(hist.Rounds, m)
	}
	s.FinalParams = global
	return hist, nil
}

// serve puts every node behind its own RPC server on an in-memory
// listener, and returns one PartyDriver per party over a shared Fleet plus
// the Initiator (node 0, with the other nodes as followers). stop closes
// the clients and servers.
func (s *Session) serve() (drivers []*PartyDriver, initiator *Initiator, stop func(), err error) {
	var srvs []*transport.Server
	clients := make([]*AggregatorClient, 0, len(s.Nodes))
	stop = func() {
		for _, c := range clients {
			_ = c.C.Close() // in-memory pipe; nothing buffered to lose
		}
		for _, srv := range srvs {
			srv.Close()
		}
	}
	for _, node := range s.Nodes {
		srv := transport.NewServer()
		ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		srvs = append(srvs, srv)
		conn, err := ln.Dial()
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		clients = append(clients, &AggregatorClient{ID: node.ID, C: transport.NewClient(conn)})
	}
	fleet := NewFleet(clients, s.Opts)
	fleet.Clock = s.Clock
	drivers = make([]*PartyDriver, len(s.Parties))
	for i, p := range s.Parties {
		drivers[i] = &PartyDriver{ID: p.ID, Fleet: fleet, Mapper: s.Mapper, Shuffler: s.Shuffler, Shuffle: s.Opts.Shuffle}
	}
	return drivers, &Initiator{Node: s.Nodes[0], Followers: clients[1:]}, stop, nil
}

func (s *Session) applyUpdate(global, fused tensor.Vector) tensor.Vector {
	if s.Cfg.Mode == fl.FedSGD {
		out := global.Clone()
		if err := tensor.AXPY(-s.Cfg.LR, out, fused); err != nil {
			panic(err) // lengths validated by the mapper
		}
		return out
	}
	return fused
}
