package core

import (
	"fmt"
	"testing"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
)

// The paper's §4.2 FLAME argument: shuffling preserves pairwise distances
// and partitioning turns one clustering problem into independent
// per-aggregator clustering problems — poisoned updates are still
// eliminated. This test drives the claim through real DeTA machinery.
func TestFLAMEFiltersPoisonAcrossPartitions(t *testing.T) {
	const n = 600
	st := rng.NewStream([]byte("flame-core"), "updates")
	updates := map[string]tensor.Vector{}
	for i := 0; i < 6; i++ {
		v := make(tensor.Vector, n)
		for j := range v {
			v[j] = 1 + 0.05*st.NormFloat64()
		}
		updates[fmt.Sprintf("P%d", i+1)] = v
	}
	poison := make(tensor.Vector, n)
	for j := range poison {
		poison[j] = -8 + 0.05*st.NormFloat64()
	}
	updates["P7-poison"] = poison

	// Trust bootstrap with FLAME as every aggregator's algorithm.
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	ap := attest.NewProxy(vendor.RAS(), OVMF)
	nodes := make([]*AggregatorNode, 3)
	for j := range nodes {
		id := fmt.Sprintf("agg-%d", j+1)
		nodes[j], err = NewAggregatorNode(id, agg.FLAMELite{}, provisionCVM(t, ap, vendor, id))
		if err != nil {
			t.Fatal(err)
		}
	}
	mapper, err := NewMapper(n, EqualProportions(3), []byte("flame-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	shuffler, err := NewShuffler([]byte("flame-permutation-key-0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	roundID := []byte("flame-round")

	for id := range updates {
		for _, node := range nodes {
			node.Register(id)
		}
	}
	for id, u := range updates {
		frags, err := Transform(mapper, shuffler, u, roundID, true)
		if err != nil {
			t.Fatal(err)
		}
		for j, node := range nodes {
			if err := node.Upload(1, id, frags[j], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged := make([]tensor.Vector, 3)
	for j, node := range nodes {
		if err := node.Aggregate(1); err != nil {
			t.Fatal(err)
		}
		merged[j], err = node.Download(1, "P1")
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := InverseTransform(mapper, shuffler, merged, roundID, true)
	if err != nil {
		t.Fatal(err)
	}
	// With the poison admitted, the mean would drop toward
	// (6*1 + (-8))/7 ≈ -0.29; with FLAME filtering it stays near 1.
	if mean := tensor.Mean(out); mean < 0.8 {
		t.Fatalf("FLAME-in-DeTA admitted the poisoned update: mean %v", mean)
	}
}
