package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/core"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

const (
	tlsName     = "127.0.0.1"
	callTimeout = 30 * time.Second // per-RPC deadline, deta-party's default
	setupBudget = 60 * time.Second
)

// deployment is one running DeTA federation inside this process: the AP
// control plane, K attested aggregators serving the RPC protocol, and P
// parties that passed Phase II. The parties share one multiplexed
// transport.Client per aggregator through a single core.Fleet, and the
// initiator (aggregator 0) reaches its follower over that same link.
type deployment struct {
	w        Workload
	stateDir string

	apSrv     *transport.Server
	ap        *core.APClient
	servers   []*transport.Server
	nodes     []*core.AggregatorNode
	cvms      []*sev.CVM
	fleet     *core.Fleet
	shufflers []*core.Shuffler // one per party, as separate processes would hold
	partyIDs  []string
	serving   sync.WaitGroup

	// wireBytes counts bytes in both directions on the K party/initiator
	// links to the aggregators (TCP bytes under TLS, frame bytes over
	// pipes). The AP link is not counted.
	wireBytes atomic.Int64
	// tracer is set for the rounds a traced phase traces; the kernel
	// decorator and the traced upload handler read it.
	tracer atomic.Pointer[tracer]
	// lastMerged is party 0's downloaded fragments of the latest round,
	// kept to check a recovered aggregator against.
	lastMerged []tensor.Vector

	times setupTimes
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	total       time.Duration
	phase1      []time.Duration // per aggregator: VCEK, endorsement, CVM launch, attestation
	phase2      []time.Duration // per party: Phase II challenge/verify/register plus broker key fetch
	journalOpen []time.Duration // per aggregator, journaled workloads only
}

// dialer opens a client connection to one served endpoint.
type dialer func() (net.Conn, error)

// deploy starts the AP, runs Phase I for every aggregator and Phase II
// for every party, and opens the journals. wrap, when non-nil, decorates
// each aggregator's algorithm (tests use it to inject faults).
func deploy(w Workload, stateDir string, wrap func(agg.Algorithm) agg.Algorithm) (*deployment, error) {
	d := &deployment{
		w:         w,
		stateDir:  stateDir,
		servers:   make([]*transport.Server, numAggregators),
		nodes:     make([]*core.AggregatorNode, numAggregators),
		cvms:      make([]*sev.CVM, numAggregators),
		shufflers: make([]*core.Shuffler, w.Parties),
		partyIDs:  make([]string, w.Parties),
		times: setupTimes{
			phase1:      make([]time.Duration, numAggregators),
			phase2:      make([]time.Duration, w.Parties),
			journalOpen: make([]time.Duration, numAggregators),
		},
	}
	for p := range d.partyIDs {
		d.partyIDs[p] = partyID(p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupBudget)
	defer cancel()
	start := time.Now()
	if err := d.setup(ctx, wrap); err != nil {
		d.Close()
		return nil, err
	}
	d.times.total = time.Since(start)
	return d, nil
}

func (d *deployment) setup(ctx context.Context, wrap func(agg.Algorithm) agg.Algorithm) error {
	// AP start.
	var mat *transport.TLSMaterials
	if d.w.TLS {
		var err error
		if mat, err = transport.NewTLSMaterials(tlsName, []string{tlsName}); err != nil {
			return err
		}
	}
	svc, err := core.NewAPService(core.OVMF, 32)
	if err != nil {
		return err
	}
	d.apSrv = transport.NewServer()
	svc.Serve(d.apSrv)
	apEP, err := d.serve(d.apSrv, mat, nil)
	if err != nil {
		return err
	}
	apConn, err := apEP()
	if err != nil {
		return fmt.Errorf("dialing AP: %w", err)
	}
	d.ap = &core.APClient{C: transport.NewClient(apConn)}

	// Phase I: every aggregator attests concurrently, as separate hosts do.
	eps := make([]dialer, numAggregators)
	var g core.Group
	for j := 0; j < numAggregators; j++ {
		g.Go(func() error {
			ep, err := d.startAggregator(ctx, j, apEP, mat, wrap)
			eps[j] = ep
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}

	clients := make([]*core.AggregatorClient, numAggregators)
	for j, ep := range eps {
		conn, err := ep()
		if err != nil {
			return fmt.Errorf("dialing %s: %w", d.nodes[j].ID, err)
		}
		clients[j] = &core.AggregatorClient{ID: d.nodes[j].ID, C: transport.NewClient(conn)}
	}
	d.fleet = &core.Fleet{Clients: clients, Timeout: callTimeout}

	// Phase II: parties verify and register concurrently, then fetch the
	// permutation key from the broker, in deta-party's order.
	tokenPubKey := func(aggID string) ([]byte, error) { return d.ap.TokenPubKey(ctx, aggID) }
	for p := range d.partyIDs {
		g.Go(func() error {
			t0 := time.Now()
			id := d.partyIDs[p]
			if err := d.fleet.VerifyAndRegisterAll(ctx, id, tokenPubKey, attest.NewNonce, attest.VerifyChallenge); err != nil {
				return fmt.Errorf("party %s phase II: %w", id, err)
			}
			if err := d.ap.RegisterParty(ctx, id); err != nil {
				return fmt.Errorf("party %s broker registration: %w", id, err)
			}
			key, err := d.ap.PermKey(ctx, id)
			if err != nil {
				return fmt.Errorf("party %s permutation key: %w", id, err)
			}
			s, err := core.NewShuffler(key)
			if err != nil {
				return err
			}
			d.shufflers[p] = s
			d.times.phase2[p] = time.Since(t0)
			return nil
		})
	}
	return g.Wait()
}

// startAggregator is one aggregator host's boot: endorse a fresh VCEK,
// launch and attest the CVM against the AP, start the node (recovering
// its journal when the workload has one) and serve the protocol.
func (d *deployment) startAggregator(ctx context.Context, j int, apEP dialer, mat *transport.TLSMaterials, wrap func(agg.Algorithm) agg.Algorithm) (dialer, error) {
	id := fmt.Sprintf("agg-%d", j+1)
	t0 := time.Now()
	conn, err := apEP()
	if err != nil {
		return nil, fmt.Errorf("%s dialing AP: %w", id, err)
	}
	ap := &core.APClient{C: transport.NewClient(conn)}
	defer ap.C.Close()
	key, pub, err := sev.GenerateVCEK()
	if err != nil {
		return nil, err
	}
	chain, err := ap.Endorse(ctx, "host/"+id, pub)
	if err != nil {
		return nil, fmt.Errorf("%s endorsement: %w", id, err)
	}
	platform, err := sev.NewEndorsedPlatform("host/"+id, chain, key)
	if err != nil {
		return nil, err
	}
	cvm, err := platform.LaunchCVM(core.OVMF)
	if err != nil {
		return nil, err
	}
	if err := ap.AttestCVM(ctx, id, platform, cvm); err != nil {
		return nil, fmt.Errorf("%s attestation: %w", id, err)
	}
	t1 := time.Now()
	d.times.phase1[j] = t1.Sub(t0)

	alg := d.w.Algorithm()
	if wrap != nil {
		alg = wrap(alg)
	}
	alg = kernelTimer{Algorithm: alg, agg: j, id: id, tracer: &d.tracer}
	var node *core.AggregatorNode
	if d.w.Journal {
		node, _, err = core.RecoverAggregatorNode(id, alg, cvm, core.StateDirFor(d.stateDir, id), journal.Options{})
		d.times.journalOpen[j] = time.Since(t1)
	} else {
		node, err = core.NewAggregatorNode(id, alg, cvm)
	}
	if err != nil {
		return nil, err
	}
	node.SetRetention(retainRounds)
	d.nodes[j], d.cvms[j] = node, cvm

	srv := transport.NewServer()
	core.ServeAggregator(node, srv)
	d.servers[j] = srv
	return d.serve(srv, mat, &d.wireBytes)
}

// serve starts srv on an in-memory listener, or on TLS over loopback TCP
// when mat is non-nil, and returns a dialer for it. Connections it dials
// count their bytes into counter when that is non-nil; under TLS the
// counter sits below the TLS layer, so record overhead is counted.
func (d *deployment) serve(srv *transport.Server, mat *transport.TLSMaterials, counter *atomic.Int64) (dialer, error) {
	var ln net.Listener
	var dial dialer
	if mat == nil {
		mem := transport.NewMemListener()
		ln = mem
		dial = func() (net.Conn, error) {
			c, err := mem.Dial()
			if err != nil {
				return nil, err
			}
			return counted(c, counter), nil
		}
	} else {
		tl, err := mat.ListenTLS("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ln = tl
		addr := tl.Addr().String()
		dial = func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			c := tls.Client(counted(raw, counter), mat.ClientConfig(tlsName))
			if err := c.Handshake(); err != nil {
				raw.Close()
				return nil, err
			}
			return c, nil
		}
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = srv.Serve(ln) // returns once srv.Close closes the listener
	}()
	return dial, nil
}

// Close stops every client, server and serving goroutine and closes the
// journals. It is safe on a partly set-up deployment.
func (d *deployment) Close() error {
	if d.fleet != nil {
		for _, c := range d.fleet.Clients {
			c.C.Close()
		}
	}
	if d.ap != nil {
		d.ap.C.Close()
	}
	for _, srv := range d.servers {
		if srv != nil {
			srv.Close()
		}
	}
	if d.apSrv != nil {
		d.apSrv.Close()
	}
	d.serving.Wait()
	var errs []error
	for _, n := range d.nodes {
		if n != nil {
			errs = append(errs, n.CloseJournal())
		}
	}
	return errors.Join(errs...)
}

// traceUploads replaces each aggregator's deta.Upload handler with one
// that makes the same AggregatorNode.UploadOwned call as
// core.ServeAggregator's handler and, while a tracer is installed, times
// it as a node.upload span.
func (d *deployment) traceUploads() {
	for j, srv := range d.servers {
		node := d.nodes[j]
		transport.HandleTyped(srv, core.MethodUpload, func(r core.UploadReq) (core.UploadResp, error) {
			tr := d.tracer.Load()
			start := time.Now()
			err := node.UploadOwned(r.Round, r.PartyID, tensor.Vector(r.Fragment), r.Weight)
			if tr != nil {
				tr.add(r.Round, 0, tr.uploadParent(r.Round, r.PartyID), "node.upload", node.ID, start, time.Now())
			}
			if err != nil {
				return core.UploadResp{}, err
			}
			return core.UploadResp{OK: true}, nil
		})
	}
}

// kernelTimer decorates an aggregator's algorithm with an agg.kernel span
// while a tracer is installed; otherwise it only forwards the call.
type kernelTimer struct {
	agg.Algorithm
	agg    int
	id     string
	tracer *atomic.Pointer[tracer]
}

func (k kernelTimer) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	tr := k.tracer.Load()
	if tr == nil {
		return k.Algorithm.Aggregate(updates, weights)
	}
	start := time.Now()
	out, err := k.Algorithm.Aggregate(updates, weights)
	tr.add(int(tr.round.Load()), 0, tr.kernelParent[k.agg].Load(), "agg.kernel", k.id, start, time.Now())
	return out, err
}

func counted(c net.Conn, n *atomic.Int64) net.Conn {
	if n == nil {
		return c
	}
	return countingConn{Conn: c, n: n}
}

// countingConn adds the bytes it reads and writes to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
