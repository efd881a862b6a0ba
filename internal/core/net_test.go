package core

import (
	"context"
	"strings"
	"testing"

	"deta/internal/attest"
	"deta/internal/tensor"
)

// startNetAggregator provisions an aggregator CVM, serves its protocol on
// an in-memory listener, and returns a connected client plus the proxy.
func startNetAggregator(t *testing.T) (*AggregatorClient, *attest.Proxy) {
	t.Helper()
	proxy, vendor := testTrust(t)
	return serveNode(t, newProvisionedNode(t, proxy, vendor, "agg-net")), proxy
}

func TestNetPhaseIIAndRound(t *testing.T) {
	client, ap := startNetAggregator(t)
	pub, err := ap.TokenPubKey("agg-net")
	if err != nil {
		t.Fatal(err)
	}
	// Phase II over the wire.
	if err := VerifyAndRegister(context.Background(), client, pub, "P1", attest.NewNonce, attest.VerifyChallenge); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAndRegister(context.Background(), client, pub, "P2", attest.NewNonce, attest.VerifyChallenge); err != nil {
		t.Fatal(err)
	}

	// One full round over RPC.
	if err := client.Upload(context.Background(), 1, "P1", tensor.Vector{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	done, _, err := client.CompleteStatus(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("round complete with one of two uploads")
	}
	if err := client.Upload(context.Background(), 1, "P2", tensor.Vector{3, 4, 5}, 1); err != nil {
		t.Fatal(err)
	}
	done, _, err = client.CompleteStatus(context.Background(), 1)
	if err != nil || !done {
		t.Fatalf("complete = %v, %v", done, err)
	}
	if err := client.Aggregate(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	frag, err := client.Download(context.Background(), 1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Vector{2, 3, 4}
	for i := range want {
		if frag[i] != want[i] {
			t.Fatalf("fragment %v, want %v", frag, want)
		}
	}
}

func TestNetPhaseIIRejectsWrongKey(t *testing.T) {
	client, _ := startNetAggregator(t)
	// A second, unrelated provisioning yields a different token key.
	otherAP, vendor := testTrust(t)
	provisionCVM(t, otherAP, vendor, "agg-other")
	wrongPub, _ := otherAP.TokenPubKey("agg-other")
	err := VerifyAndRegister(context.Background(), client, wrongPub, "P1", attest.NewNonce, attest.VerifyChallenge)
	if err == nil || !strings.Contains(err.Error(), "Phase II") {
		t.Fatalf("wrong token accepted: %v", err)
	}
}

func TestNetErrorsPropagate(t *testing.T) {
	client, _ := startNetAggregator(t)
	// Unregistered party upload must surface the remote error.
	if err := client.Upload(context.Background(), 1, "ghost", tensor.Vector{1}, 1); err == nil {
		t.Fatal("remote rejection not propagated")
	}
	if _, err := client.Download(context.Background(), 9, "ghost"); err == nil {
		t.Fatal("remote download rejection not propagated")
	}
	if err := client.Register(context.Background(), ""); err == nil {
		t.Fatal("empty party ID accepted")
	}
	if err := client.Aggregate(context.Background(), 42); err == nil {
		t.Fatal("aggregate of empty round accepted")
	}
}
