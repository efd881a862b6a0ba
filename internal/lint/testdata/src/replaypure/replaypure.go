// Package core poses as deta/internal/core for the replaypure fixture:
// global rand and goroutines are findings only inside functions
// transitively reachable from the replay roots (RecoverAggregatorNode
// here); see the replaypure_unscoped fixture for the unreachable side.
package core

import (
	"math/rand"
	"time"
)

type node struct {
	sum  float64
	vals map[string]float64
	tick int64
}

// RecoverAggregatorNode is a replay root: everything it reaches must be a
// pure function of the journal.
func RecoverAggregatorNode(n *node) {
	replayTail(n)
	helperDeep(n)
	n.accumulate()
}

func replayTail(n *node) {
	t := time.Now() // want replaypure
	_ = t
	go background(n) // want replaypure
	n.tick = nowFromClock()
}

func background(n *node) {}

// helperDeep only matters as a call edge: the defect is two hops from the
// root.
func helperDeep(n *node) {
	jitter(n)
}

func jitter(n *node) {
	n.sum += rand.Float64() // want replaypure
	r := rand.New(rand.NewSource(1))
	n.sum += r.Float64()
}

// accumulate folds map values in iteration order, and reaches replay, so
// the finding names its root.
func (n *node) accumulate() {
	for _, v := range n.vals {
		n.sum += v // want replaypure
	}
}
