// Package core poses as deta/internal/core for the suite-level
// one-defect-one-finding test: each marked line breaks the determinism
// invariant under more than one of its rules (replay-reachable and in
// core; replay-reachable and in a deterministic package), and the full
// suite must report it exactly once.
package core

import "time"

type node struct {
	sum  float64
	vals map[string]float64
	at   time.Time
}

// RecoverAggregatorNode is a replay root.
func RecoverAggregatorNode(n *node) {
	n.at = time.Now() // want replaypure
	for _, v := range n.vals {
		n.sum += v // want replaypure
	}
}
