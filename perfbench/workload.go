package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/tensor"
)

// Fixed deployment shape shared by every workload.
const (
	numAggregators = 2 // K, sized to a 2-core machine (the paper deploys 3)
	poolSlots      = 4 // distinct update vectors per party, rotated across rounds
	retainRounds   = 4 // aggregator-side round retention, bounds memory
)

// Workload is one benchmark configuration: how many parties upload how
// large a model, over which transport, fused by which algorithm, with or
// without a durable journal.
type Workload struct {
	Name      string
	Parties   int
	N         int  // model parameters per update
	Shuffle   bool // false = partition-only (deta-party -no-shuffle)
	TLS       bool // TLS 1.3 over loopback TCP instead of in-memory pipes
	Journal   bool // fsynced write-ahead journal per aggregator
	Algorithm func() agg.Algorithm
	Why       string
}

// Workloads lists every workload in the order "all" runs them.
var Workloads = []Workload{
	{
		Name: "shuffle-mem", Parties: 8, N: 32768, Shuffle: true,
		Algorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
		Why:       "party-side Transform/InverseTransform with per-round permutation derivation dominates; transport, journal and fusion are cheap",
	},
	{
		Name: "median-tls", Parties: 8, N: 131072, TLS: true,
		Algorithm: func() agg.Algorithm { return agg.CoordinateMedian{} },
		Why:       "bulk data plane: 8 MiB up and down per round through TLS, the frame codec and a median fuse; no permutation, no journal",
	},
	{
		Name: "fsync-mem", Parties: 32, N: 1024, Shuffle: true, Journal: true,
		Algorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
		Why:       "durability and control plane: 33 fsynced WAL appends per aggregator per round and many small RPCs",
	},
}

// selectWorkloads resolves a comma-separated list of names ("all" for
// every workload).
func selectWorkloads(spec string) ([]Workload, error) {
	if spec == "all" {
		return Workloads, nil
	}
	var out []Workload
	for _, name := range strings.Split(spec, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func (w Workload) transportName() string {
	if w.TLS {
		return "tls"
	}
	return "mem"
}

// inputs are the seed-derived data every round draws from: a pool of
// update vectors per party, the parties' weights, the shared mapper, and
// the oracle — the fused vector each pool slot must merge back to.
type inputs struct {
	updates [][]tensor.Vector // [party][slot]
	weights []float64
	oracle  []tensor.Vector // [slot]
	mapper  *core.Mapper
}

// partyID names party p so that sorting IDs (the aggregator's fusion
// order) matches index order, which the oracle relies on.
func partyID(p int) string { return fmt.Sprintf("P%03d", p) }

// genInputs builds the workload's inputs from seed. The oracle runs the
// workload's algorithm on the full, untransformed updates in party order,
// exactly the order each aggregator fuses its fragments in; because every
// algorithm here is coordinate-wise, the merged model of every party must
// equal it bit for bit.
func genInputs(w Workload, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{
		updates: make([][]tensor.Vector, w.Parties),
		weights: make([]float64, w.Parties),
		oracle:  make([]tensor.Vector, poolSlots),
	}
	for p := range in.updates {
		in.weights[p] = float64(64 + r.Intn(192))
		in.updates[p] = make([]tensor.Vector, poolSlots)
		for s := range in.updates[p] {
			v := make(tensor.Vector, w.N)
			for i := range v {
				v[i] = r.NormFloat64() * 0.01
			}
			in.updates[p][s] = v
		}
	}
	alg := w.Algorithm()
	for s := range in.oracle {
		slot := make([]tensor.Vector, w.Parties)
		for p := range slot {
			slot[p] = in.updates[p][s]
		}
		fused, err := alg.Aggregate(slot, in.weights)
		if err != nil {
			return nil, fmt.Errorf("oracle for slot %d: %w", s, err)
		}
		in.oracle[s] = fused
	}
	m, err := core.NewMapper(w.N, core.EqualProportions(numAggregators), []byte(fmt.Sprintf("perfbench-mapper-%d", seed)))
	if err != nil {
		return nil, err
	}
	in.mapper = m
	return in, nil
}

// bitEqual reports whether two vectors are identical bit for bit.
func bitEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
