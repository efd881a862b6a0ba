// Package core poses as deta/internal/core for replaypure's clock rule:
// direct calls into package time's clock surface (readings, sleeps, timer
// constructors) bypass the injectable Clock and are findings everywhere in
// core, reachable from a replay root or not, except clock.go.
package core

import "time"

var start time.Time

func deadlines(d time.Duration) {
	_ = time.Now()   // want replaypure
	time.Sleep(d)    // want replaypure
	<-time.After(d)  // want replaypure
	_ = time.Since(start) // want replaypure
	tk := time.NewTicker(d) // want replaypure
	tk.Stop()
	tm := time.NewTimer(d) // want replaypure
	tm.Stop()
	time.AfterFunc(d, func() {}) // want replaypure
}
