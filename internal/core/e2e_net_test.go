package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// TestNetworkedTrainingEndToEnd replicates the full cmd/ deployment inside
// one test over in-memory transports: an AP control plane, three
// aggregator servers on remotely endorsed platforms (node 0's Initiator
// driving follower sync over RPC), and two parties running the
// PartyDriver (Phase II, transformed uploads, merges) — then checks the
// resulting model matches an in-process FFL baseline bit for bit.
func TestNetworkedTrainingEndToEnd(t *testing.T) {
	const (
		parties = 2
		aggs    = 3
		rounds  = 2
	)

	// --- Control plane --------------------------------------------------
	apSvc, err := NewAPService(OVMF, 32)
	if err != nil {
		t.Fatal(err)
	}
	apSrv := transport.NewServer()
	apSvc.Serve(apSrv)
	apLn := transport.NewMemListener()
	go apSrv.Serve(apLn)
	defer apSrv.Close()

	dialAP := func() *APClient {
		conn, err := apLn.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return &APClient{C: transport.NewClient(conn)}
	}

	// --- Aggregator processes -------------------------------------------
	aggLns := make([]*transport.MemListener, aggs)
	nodes := make([]*AggregatorNode, aggs)
	for j := 0; j < aggs; j++ {
		ap := dialAP()
		platform := remotePlatform(t, ap, fmt.Sprintf("host-%d", j))
		cvm, err := platform.LaunchCVM(OVMF)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("agg-%d", j+1)
		if err := ap.AttestCVM(context.Background(), id, platform, cvm); err != nil {
			t.Fatal(err)
		}
		node, err := NewAggregatorNode(id, agg.IterativeAverage{}, cvm)
		if err != nil {
			t.Fatal(err)
		}
		nodes[j] = node
		_, aggLns[j] = serveMem(t, node)
	}

	// --- Party processes -------------------------------------------------
	w := newFedWorkload(t, "e2e", parties, aggs, rounds)
	runParty := func(idx int) (tensor.Vector, error) {
		id := fmt.Sprintf("P%d", idx+1)
		ap := dialAP()
		clients := make([]*AggregatorClient, aggs)
		for j, ln := range aggLns {
			conn, err := ln.Dial()
			if err != nil {
				return nil, err
			}
			clients[j] = &AggregatorClient{ID: fmt.Sprintf("agg-%d", j+1), C: transport.NewClient(conn)}
		}
		ctx := context.Background()
		if err := ap.RegisterParty(ctx, id); err != nil {
			return nil, err
		}
		permKey, err := ap.PermKey(ctx, id)
		if err != nil {
			return nil, err
		}
		// Phase II fans out in parallel through the Fleet (token-key
		// fetches share the multiplexed AP connection).
		fleet := &Fleet{Clients: clients, Timeout: 30 * time.Second}
		d, err := w.join(ctx, id, fleet, permKey, func(aggID string) ([]byte, error) { return ap.TokenPubKey(ctx, aggID) }, 30*time.Second)
		if err != nil {
			return nil, err
		}
		return w.train(ctx, idx, d, func(round int) ([]byte, error) { return ap.RoundID(ctx, round) }, nil)
	}

	// Pre-register both parties on all nodes: otherwise P1 may upload
	// round 1 before P2 registers, and the nodes fuse with parties=1.
	for j := range nodes {
		for p := 0; p < parties; p++ {
			nodes[j].Register(fmt.Sprintf("P%d", p+1))
		}
	}

	// Initiator sync: node 0 drives its followers over RPC, as
	// deta-aggregator -initiator does.
	followers := make([]*AggregatorClient, 0, aggs-1)
	for j := 1; j < aggs; j++ {
		conn, err := aggLns[j].Dial()
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, &AggregatorClient{ID: nodes[j].ID, C: transport.NewClient(conn)})
	}
	syncCtx, stopSync := context.WithCancel(context.Background())
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		(&Initiator{Node: nodes[0], Followers: followers}).Run(syncCtx, 1)
	}()
	defer func() {
		stopSync()
		<-syncDone
	}()

	finals := trainParties(t, parties, runParty)

	// Both parties computed the same global model.
	for i := range finals[0] {
		if finals[0][i] != finals[1][i] {
			t.Fatalf("parties disagree on the global model at %d", i)
		}
	}

	// And it equals the centralized FFL baseline exactly, replayed by
	// hand to capture the final params.
	baselineParties := make([]*fl.Party, parties)
	for i := range baselineParties {
		baselineParties[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), w.build, w.shards[i], w.cfg)
	}
	global := w.initParams()
	for round := 1; round <= rounds; round++ {
		updates := make([]tensor.Vector, parties)
		weights := make([]float64, parties)
		for i, p := range baselineParties {
			u, _, err := p.LocalUpdate(global, round)
			if err != nil {
				t.Fatal(err)
			}
			updates[i] = u
			weights[i] = float64(w.shards[i].Len())
		}
		if global, err = (agg.IterativeAverage{}).Aggregate(updates, weights); err != nil {
			t.Fatal(err)
		}
	}
	for i := range global {
		if diff := global[i] - finals[0][i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("networked DeTA differs from centralized baseline at %d: %v vs %v",
				i, finals[0][i], global[i])
		}
	}
}

// fedWorkload is the small federation the end-to-end tests train:
// ConvNet-8 on 12x12 synthetic data, 16 IID samples per party. Every seed
// derives from the test's name, so each test keeps its own data.
type fedWorkload struct {
	name   string
	build  func() *nn.Network
	cfg    fl.Config
	shards []*dataset.Dataset
	mapper *Mapper
}

func newFedWorkload(t *testing.T, name string, parties, aggs, rounds int) *fedWorkload {
	t.Helper()
	spec := dataset.Spec{Name: name, C: 1, H: 12, W: 12, Classes: 4}
	train, _ := dataset.TrainTest(spec, parties*16, 8, []byte(name+"-data"))
	w := &fedWorkload{
		name:  name,
		build: func() *nn.Network { return nn.ConvNet8(1, 12, 12, 4) },
		cfg: fl.Config{
			Mode: fl.FedAvg, Rounds: rounds, LocalEpochs: 1, BatchSize: 8,
			LR: 0.05, Momentum: 0.9, Seed: []byte(name + "-cfg"),
		},
		shards: dataset.SplitIID(train, parties, []byte(name+"-split")),
	}
	var err error
	if w.mapper, err = NewMapper(w.build().NumParams(), EqualProportions(aggs), []byte(name+"-mapper")); err != nil {
		t.Fatal(err)
	}
	return w
}

// initParams is the initial global model every party starts from.
func (w *fedWorkload) initParams() tensor.Vector {
	net := w.build()
	net.Init([]byte(w.name + "-init"))
	return net.Params()
}

// join builds a party's driver over fleet and runs Phase II.
func (w *fedWorkload) join(ctx context.Context, id string, fleet *Fleet, permKey []byte,
	tokenPubKey func(aggID string) ([]byte, error), roundTimeout time.Duration) (*PartyDriver, error) {
	shuffler, err := NewShuffler(permKey)
	if err != nil {
		return nil, err
	}
	d := &PartyDriver{ID: id, Fleet: fleet, Mapper: w.mapper, Shuffler: shuffler, Shuffle: true, RoundTimeout: roundTimeout}
	return d, d.Join(ctx, tokenPubKey)
}

// train runs party idx through every round on d — local update, upload,
// download — and returns its final model. hook, when non-nil, runs after
// each step ("upload", "download"): the chaos test's fault-injection point.
func (w *fedWorkload) train(ctx context.Context, idx int, d *PartyDriver,
	roundID func(round int) ([]byte, error), hook func(round int, step string) error) (tensor.Vector, error) {
	if hook == nil {
		hook = func(int, string) error { return nil }
	}
	party := fl.NewParty(d.ID, w.build, w.shards[idx], w.cfg)
	global := w.initParams()
	for round := 1; round <= w.cfg.Rounds; round++ {
		id, err := roundID(round)
		if err != nil {
			return nil, err
		}
		update, _, err := party.LocalUpdate(global, round)
		if err != nil {
			return nil, err
		}
		frags, err := d.Upload(ctx, round, id, update, float64(w.shards[idx].Len()))
		if err != nil {
			return nil, err
		}
		if err := hook(round, "upload"); err != nil {
			return nil, err
		}
		if global, err = d.Download(ctx, round, id, frags); err != nil {
			return nil, err
		}
		if err := hook(round, "download"); err != nil {
			return nil, err
		}
	}
	return global, nil
}

// trainParties runs every party concurrently and returns their final
// models, failing the test if any party fails.
func trainParties(t *testing.T, parties int, run func(idx int) (tensor.Vector, error)) []tensor.Vector {
	t.Helper()
	var wg sync.WaitGroup
	finals := make([]tensor.Vector, parties)
	errs := make([]error, parties)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals[p], errs[p] = run(p)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p+1, err)
		}
	}
	return finals
}
