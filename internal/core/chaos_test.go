package core

import (
	"context"
	"fmt"
	"net"
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

// Chaos harness parameters. The seed keys every fault plan, so a failing
// run replays the same fault schedule.
const (
	chaosParties       = 2
	chaosAggs          = 3
	chaosRounds        = 3
	chaosSeed    int64 = 0xDE7A
)

// chaosAgg is one journaled aggregator "process" that can be killed and
// restarted mid-test: restart drops the in-memory node, closes its server,
// and recovers a fresh node (fresh CVM, re-attested under the same ID)
// from the same journal directory — exactly what a crashed deployment does.
type chaosAgg struct {
	id     string
	dir    string
	proxy  *attest.Proxy
	vendor *sev.Vendor

	// configure, when non-nil, is re-applied to every recovered node —
	// lifecycle/liveness settings and clocks are boot flags, not journal
	// state, so a restarted process must re-arm them.
	configure func(*AggregatorNode)
	// followers, when non-empty, makes this process the initiator: like
	// deta-aggregator -initiator, every boot runs Initiator.Run over RPC
	// to the followers, resuming at the recovered LastAggregatedRound()+1.
	followers []*chaosAgg

	mu       sync.Mutex
	gen      int
	node     *AggregatorNode
	srv      *transport.Server
	ln       *transport.MemListener
	stopSync func() // stops this boot's initiator and waits for it
}

func (c *chaosAgg) start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	platform, err := sev.NewPlatform(fmt.Sprintf("host/%s/gen%d", c.id, c.gen), c.vendor)
	if err != nil {
		return err
	}
	cvm, err := platform.LaunchCVM(OVMF)
	if err != nil {
		return err
	}
	if _, err := c.proxy.Provision(c.id, platform, cvm); err != nil {
		return err
	}
	node, _, err := RecoverAggregatorNode(c.id, agg.IterativeAverage{}, cvm, c.dir, journal.Options{})
	if err != nil {
		return err
	}
	if c.configure != nil {
		c.configure(node)
	}
	srv := transport.NewServer()
	ServeAggregator(node, srv)
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	c.node, c.srv, c.ln = node, srv, ln
	c.stopSync = func() {}
	if len(c.followers) > 0 {
		initiator := &Initiator{Node: node, Followers: chaosClients(c.followers), PeerTimeout: 10 * time.Second}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			initiator.Run(ctx, node.LastAggregatedRound()+1)
		}()
		c.stopSync = func() {
			cancel()
			<-done
		}
	}
	return nil
}

// restart kills the running aggregator (server and journal handle closed,
// node discarded) and boots a replacement from the journal.
func (c *chaosAgg) restart() error {
	c.mu.Lock()
	c.stopSync()
	c.srv.Close()
	c.node.CloseJournal()
	c.mu.Unlock()
	return c.start()
}

func (c *chaosAgg) getNode() *AggregatorNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node
}

func (c *chaosAgg) dialCurrent() (net.Conn, error) {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	return ln.Dial()
}

// chaosClients returns one fault-free client per process, each redialing
// whatever server the process currently runs.
func chaosClients(procs []*chaosAgg) []*AggregatorClient {
	clients := make([]*AggregatorClient, len(procs))
	for j, c := range procs {
		clients[j] = &AggregatorClient{
			ID:     c.id,
			Redial: func(context.Context) (net.Conn, error) { return c.dialCurrent() },
		}
	}
	return clients
}

func (c *chaosAgg) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopSync()
	c.srv.Close()
	c.node.CloseJournal()
}

// runChaosFederation runs a full 2-party/3-aggregator/3-round federation
// over in-memory transports — parties on PartyDriver, agg-1 running the
// Initiator — and returns the final global model. With
// faulty=true, every party↔aggregator connection injects drops, delays,
// and severs from a deterministic seed, and two aggregators are killed and
// restarted mid-round; the journal plus idempotent retries must make the
// result indistinguishable from the clean run.
func runChaosFederation(t *testing.T, faulty bool) tensor.Vector {
	t.Helper()

	proxy, vendor := testTrust(t)

	// agg-1 is the initiator. Followers boot first so its sync loop can
	// reach them.
	procs := make([]*chaosAgg, chaosAggs)
	for j := range procs {
		procs[j] = &chaosAgg{
			id: fmt.Sprintf("agg-%d", j+1), dir: t.TempDir(),
			proxy: proxy, vendor: vendor,
		}
	}
	procs[0].followers = procs[1:]
	for j := len(procs) - 1; j >= 0; j-- {
		if err := procs[j].start(); err != nil {
			t.Fatal(err)
		}
		defer procs[j].stop()
	}

	// Pre-register every party on every node so the first round's quorum
	// is all parties regardless of upload interleaving (mirrors the e2e
	// test's guard).
	for _, c := range procs {
		for p := 0; p < chaosParties; p++ {
			c.getNode().Register(fmt.Sprintf("P%d", p+1))
		}
	}

	broker, err := attest.NewKeyBroker(32)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < chaosParties; p++ {
		broker.RegisterParty(fmt.Sprintf("P%d", p+1))
	}
	w := newFedWorkload(t, "chaos", chaosParties, chaosAggs, chaosRounds)

	runParty := func(idx int) (tensor.Vector, error) {
		id := fmt.Sprintf("P%d", idx+1)
		clients := make([]*AggregatorClient, chaosAggs)
		for j, c := range procs {
			dial := c.dialCurrent
			if faulty {
				// Deterministic per-(party, aggregator) fault plan; each
				// redial draws the next per-connection schedule from it.
				dial = transport.FaultDialer(c.dialCurrent, transport.Faults{
					Seed:      chaosSeed + int64(idx*16+j),
					DelayProb: 0.2, Delay: time.Millisecond,
					DropProb: 0.02, SeverProb: 0.02,
				})
			}
			clients[j] = &AggregatorClient{
				ID:     c.id,
				Redial: func(context.Context) (net.Conn, error) { return dial() },
			}
		}
		permKey, err := broker.PermutationKey(id)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		// A short per-call timeout classifies dropped writes (request sent,
		// connection silently dead) as failures quickly so the driver
		// re-drives them.
		d, err := w.join(ctx, id, &Fleet{Clients: clients, Timeout: 2 * time.Second}, permKey, proxy.TokenPubKey, time.Minute)
		if err != nil {
			return nil, err
		}
		return w.train(ctx, idx, d, broker.RoundID, func(round int, step string) error {
			if !faulty || idx != 0 || round != 2 {
				return nil
			}
			if step == "upload" {
				// Kill+restart aggregator 1 — the initiator — mid-round:
				// this party's round-2 fragments are journaled but maybe
				// not yet fused (the other party may still be uploading).
				// The recovered node must resume the round from its WAL,
				// and its initiator must resume sync from its journal.
				return procs[0].restart()
			}
			// Kill+restart aggregator 2 after fusion: the other party may
			// have yet to download round 2 from it, so the recovered node
			// must serve the journaled aggregated vector bit-identically.
			return procs[1].restart()
		})
	}

	finals := trainParties(t, chaosParties, runParty)
	for i := range finals[0] {
		if finals[0][i] != finals[1][i] {
			t.Fatalf("parties disagree on the global model at coordinate %d (faulty=%v)", i, faulty)
		}
	}
	return finals[0]
}

// TestChaosRestartBitIdenticalModel is the acceptance test for the crash-
// recovery work: a federation suffering injected connection drops, delays,
// and severs plus two aggregator kill+restarts mid-round must complete all
// rounds and produce a global model bit-identical to a fault-free run.
func TestChaosRestartBitIdenticalModel(t *testing.T) {
	clean := runChaosFederation(t, false)
	chaotic := runChaosFederation(t, true)
	if len(clean) != len(chaotic) {
		t.Fatalf("model sizes differ: %d vs %d", len(clean), len(chaotic))
	}
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("chaos run diverged from fault-free run at coordinate %d: %v vs %v",
				i, chaotic[i], clean[i])
		}
	}
}
