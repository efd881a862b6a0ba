package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"deta/internal/tensor"
	"deta/internal/transport"
)

// RPC method names exposed by an aggregator server. Parties speak this
// protocol over TLS after Phase II registration.
const (
	MethodChallenge = "deta.Challenge"
	MethodRegister  = "deta.Register"
	MethodUpload    = "deta.Upload"
	MethodComplete  = "deta.Complete"
	MethodAggregate = "deta.Aggregate"
	MethodDownload  = "deta.Download"
	MethodHeartbeat = "deta.Heartbeat"
)

// Wire messages. Fields are exported for gob.
type (
	// ChallengeReq asks the aggregator to prove token possession.
	ChallengeReq struct{ Nonce []byte }
	// ChallengeResp carries the token signature over the nonce.
	ChallengeResp struct{ Sig []byte }

	// RegisterReq admits a party.
	RegisterReq struct{ PartyID string }
	// RegisterResp acknowledges registration.
	RegisterResp struct{ OK bool }

	// UploadReq carries one transformed fragment.
	UploadReq struct {
		Round    int
		PartyID  string
		Frag     int // fragment (partition) index at this aggregator
		Fragment []float64
		Weight   float64
	}
	// UploadResp acknowledges an upload.
	UploadResp struct{ OK bool }

	// CompleteReq polls round completeness.
	CompleteReq struct{ Round int }
	// CompleteResp reports it. Abandoned (added with the round lifecycle;
	// gob keeps old peers compatible) flags a round past its deadline
	// below quorum, so pollers skip it instead of waiting forever.
	CompleteResp struct {
		Complete  bool
		Abandoned bool
	}

	// HeartbeatReq is a party's lightweight liveness signal.
	HeartbeatReq struct{ PartyID string }
	// HeartbeatResp acknowledges it; Rejoined reports that the heartbeat
	// readmitted a previously evicted party.
	HeartbeatResp struct {
		OK       bool
		Rejoined bool
	}

	// AggregateReq instructs a follower to fuse a round (sent by the
	// initiator's sync protocol).
	AggregateReq struct{ Round int }
	// AggregateResp acknowledges fusion.
	AggregateResp struct{ OK bool }

	// DownloadReq fetches the aggregated fragment.
	DownloadReq struct {
		Round   int
		PartyID string
	}
	// DownloadResp carries it.
	DownloadResp struct{ Fragment []float64 }
)

// The fragment-bearing messages ride transport's fixed-layout binary
// codec instead of gob: they are the data plane, exchanged by every party
// on every round. All other messages above (the control plane) stay gob.

// AppendWire implements transport.WireAppender.
func (r UploadReq) AppendWire(dst []byte) ([]byte, error) {
	return transport.AppendFragment(dst, &transport.Fragment{
		Round: r.Round, Index: r.Frag, PartyID: r.PartyID,
		Weight: r.Weight, Values: tensor.Vector(r.Fragment),
	})
}

// DecodeWire implements transport.WireDecoder. The fragment lands in a
// pooled tensor buffer (see transport.DecodeFragment).
func (r *UploadReq) DecodeWire(data []byte) error {
	var f transport.Fragment
	if err := transport.DecodeFragment(data, &f); err != nil {
		return err
	}
	r.Round, r.Frag, r.PartyID, r.Weight, r.Fragment = f.Round, f.Index, f.PartyID, f.Weight, f.Values
	return nil
}

// AppendWire implements transport.WireAppender.
func (r DownloadResp) AppendWire(dst []byte) ([]byte, error) {
	return transport.AppendFragment(dst, &transport.Fragment{Values: tensor.Vector(r.Fragment)})
}

// DecodeWire implements transport.WireDecoder.
func (r *DownloadResp) DecodeWire(data []byte) error {
	var f transport.Fragment
	if err := transport.DecodeFragment(data, &f); err != nil {
		return err
	}
	r.Fragment = f.Values
	return nil
}

// ServeAggregator binds an AggregatorNode's protocol onto an RPC server.
func ServeAggregator(node *AggregatorNode, srv *transport.Server) {
	transport.HandleTyped(srv, MethodChallenge, func(r ChallengeReq) (ChallengeResp, error) {
		sig, err := node.SignChallenge(r.Nonce)
		if err != nil {
			return ChallengeResp{}, err
		}
		return ChallengeResp{Sig: sig}, nil
	})
	transport.HandleTyped(srv, MethodRegister, func(r RegisterReq) (RegisterResp, error) {
		if r.PartyID == "" {
			return RegisterResp{}, errors.New("empty party ID")
		}
		node.Register(r.PartyID)
		return RegisterResp{OK: true}, nil
	})
	transport.HandleTyped(srv, MethodUpload, func(r UploadReq) (UploadResp, error) {
		// The decoded fragment was materialized for this request, so the
		// node takes ownership instead of paying a defensive clone.
		if err := node.UploadOwned(r.Round, r.PartyID, tensor.Vector(r.Fragment), r.Weight); err != nil {
			return UploadResp{}, err
		}
		return UploadResp{OK: true}, nil
	})
	transport.HandleTyped(srv, MethodComplete, func(r CompleteReq) (CompleteResp, error) {
		done, abandoned := node.RoundStatus(r.Round)
		return CompleteResp{Complete: done, Abandoned: abandoned}, nil
	})
	transport.HandleTyped(srv, MethodHeartbeat, func(r HeartbeatReq) (HeartbeatResp, error) {
		rejoined, err := node.Heartbeat(r.PartyID)
		if err != nil {
			return HeartbeatResp{}, err
		}
		return HeartbeatResp{OK: true, Rejoined: rejoined}, nil
	})
	transport.HandleTyped(srv, MethodAggregate, func(r AggregateReq) (AggregateResp, error) {
		if err := node.Aggregate(r.Round); err != nil {
			return AggregateResp{}, err
		}
		return AggregateResp{OK: true}, nil
	})
	transport.HandleTyped(srv, MethodDownload, func(r DownloadReq) (DownloadResp, error) {
		frag, err := node.Download(r.Round, r.PartyID)
		if err != nil {
			return DownloadResp{}, err
		}
		return DownloadResp{Fragment: frag}, nil
	})
}

// AggregatorClient is the party-side handle to one remote aggregator. All
// methods take a context whose deadline bounds the RPC; the underlying
// transport.Client multiplexes concurrent calls, so one AggregatorClient
// is safe to share across the fan-out goroutines of a Fleet.
//
// With Redial set, a connection-level failure (crashed/restarted
// aggregator, severed link) is repaired transparently: the next call
// re-dials and proceeds on a fresh connection. Application-level retries
// stay with the caller — combined with idempotent uploads they make a
// party's round loop safe to re-drive after any ambiguous failure.
type AggregatorClient struct {
	ID string
	C  *transport.Client

	// Redial, when non-nil, re-establishes the connection after the
	// current one fails (or when C starts nil). It is called with the
	// in-flight call's context.
	Redial func(ctx context.Context) (net.Conn, error)

	mu sync.Mutex // guards C swaps during redial
}

// client returns a healthy transport client, re-dialing if the previous
// connection died and a Redial function is configured.
func (a *AggregatorClient) client(ctx context.Context) (*transport.Client, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.C != nil && a.C.Err() == nil {
		return a.C, nil
	}
	if a.Redial == nil {
		if a.C == nil {
			return nil, fmt.Errorf("core: aggregator %s: no connection", a.ID)
		}
		return a.C, nil // sticky error surfaces in the call
	}
	//lint:ignore lockregion redial deliberately serializes callers: the shared connection is dead, so every concurrent call needs the one fresh conn this dial produces
	conn, err := a.Redial(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: redialing %s: %w", a.ID, err)
	}
	if a.C != nil {
		_ = a.C.Close() // the old connection already failed; its close error is noise
	}
	a.C = transport.NewClient(conn)
	return a.C, nil
}

func callAgg[Req, Resp any](ctx context.Context, a *AggregatorClient, method string, req Req) (Resp, error) {
	c, err := a.client(ctx)
	if err != nil {
		var zero Resp
		return zero, err
	}
	return transport.CallTypedContext[Req, Resp](ctx, c, method, req)
}

// Stats exposes the current connection's transport counters.
func (a *AggregatorClient) Stats() transport.StatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.C == nil {
		return transport.StatsSnapshot{}
	}
	return a.C.Stats().Snapshot()
}

// Challenge runs the Phase II nonce exchange.
func (a *AggregatorClient) Challenge(ctx context.Context, nonce []byte) ([]byte, error) {
	resp, err := callAgg[ChallengeReq, ChallengeResp](ctx, a, MethodChallenge, ChallengeReq{Nonce: nonce})
	if err != nil {
		return nil, fmt.Errorf("core: challenge %s: %w", a.ID, err)
	}
	return resp.Sig, nil
}

// Register admits the party at this aggregator.
func (a *AggregatorClient) Register(ctx context.Context, partyID string) error {
	_, err := callAgg[RegisterReq, RegisterResp](ctx, a, MethodRegister, RegisterReq{PartyID: partyID})
	if err != nil {
		return fmt.Errorf("core: register at %s: %w", a.ID, err)
	}
	return nil
}

// Upload sends a transformed fragment. The server side is idempotent for
// identical retries, so re-sending after an ambiguous failure is safe.
func (a *AggregatorClient) Upload(ctx context.Context, round int, partyID string, frag tensor.Vector, weight float64) error {
	return a.UploadFrag(ctx, round, partyID, frag, 0, weight)
}

// UploadFrag is Upload carrying the fragment (partition) index in the
// wire header — Fleet.UploadAll uses it so journals and traces can tell
// which partition a payload belongs to.
func (a *AggregatorClient) UploadFrag(ctx context.Context, round int, partyID string, frag tensor.Vector, index int, weight float64) error {
	_, err := callAgg[UploadReq, UploadResp](ctx, a, MethodUpload, UploadReq{
		Round: round, PartyID: partyID, Frag: index, Fragment: frag, Weight: weight,
	})
	if err != nil {
		return fmt.Errorf("core: upload to %s: %w", a.ID, err)
	}
	return nil
}

// CompleteStatus polls whether the round is ready to fuse, plus its
// abandoned flag, so sync loops can skip a round the aggregator gave up on
// instead of polling it until their deadline.
func (a *AggregatorClient) CompleteStatus(ctx context.Context, round int) (complete, abandoned bool, err error) {
	resp, err := callAgg[CompleteReq, CompleteResp](ctx, a, MethodComplete, CompleteReq{Round: round})
	if err != nil {
		return false, false, err
	}
	return resp.Complete, resp.Abandoned, nil
}

// Heartbeat sends a liveness signal; rejoined reports that this heartbeat
// readmitted the (previously evicted) party.
func (a *AggregatorClient) Heartbeat(ctx context.Context, partyID string) (rejoined bool, err error) {
	resp, err := callAgg[HeartbeatReq, HeartbeatResp](ctx, a, MethodHeartbeat, HeartbeatReq{PartyID: partyID})
	if err != nil {
		return false, fmt.Errorf("core: heartbeat to %s: %w", a.ID, err)
	}
	return resp.Rejoined, nil
}

// Aggregate instructs the aggregator to fuse a round (idempotent on the
// server, so re-driving sync after a restart is safe).
func (a *AggregatorClient) Aggregate(ctx context.Context, round int) error {
	_, err := callAgg[AggregateReq, AggregateResp](ctx, a, MethodAggregate, AggregateReq{Round: round})
	if err != nil {
		return fmt.Errorf("core: aggregate at %s: %w", a.ID, err)
	}
	return nil
}

// Download fetches the aggregated fragment.
func (a *AggregatorClient) Download(ctx context.Context, round int, partyID string) (tensor.Vector, error) {
	resp, err := callAgg[DownloadReq, DownloadResp](ctx, a, MethodDownload, DownloadReq{
		Round: round, PartyID: partyID,
	})
	if err != nil {
		return nil, fmt.Errorf("core: download from %s: %w", a.ID, err)
	}
	return resp.Fragment, nil
}

// ErrVerificationFailed marks a Phase II *cryptographic* rejection — an
// aggregator that answered but could not prove token possession. Fan-out
// layers must never tolerate it under quorum: a connectivity failure is an
// availability problem, a verification failure is an adversary.
var ErrVerificationFailed = errors.New("core: aggregator failed Phase II verification")

// VerifyAndRegister performs the party-side Phase II against one remote
// aggregator: nonce challenge, signature verification against the AP's
// token public key, then registration. The context deadline bounds each
// RPC, so a dead or stalled endpoint fails fast instead of hanging the
// party.
func VerifyAndRegister(ctx context.Context, a *AggregatorClient, tokenPubKey []byte, partyID string,
	newNonce func() ([]byte, error), verify func(pub, nonce, sig []byte) error) error {
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	sig, err := a.Challenge(ctx, nonce)
	if err != nil {
		return err
	}
	if err := verify(tokenPubKey, nonce, sig); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrVerificationFailed, a.ID, err)
	}
	return a.Register(ctx, partyID)
}
