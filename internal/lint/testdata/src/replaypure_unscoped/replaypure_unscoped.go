// Package transport poses as deta/internal/transport, outside core, cmd and
// the deterministic packages, with no replay root: code unreachable from
// replay may use the clock, the global rand, goroutines, and raw map
// iteration freely. No want markers in this package.
package transport

import (
	"math/rand"
	"time"
)

type node struct {
	sum  float64
	vals map[string]float64
}

func background(n *node) {}

func notReachable(n *node) {
	_ = time.Now()
	_ = time.Since(time.Time{})
	n.sum += rand.Float64()
	go background(n)
	for _, v := range n.vals {
		n.sum += v
	}
}
