// Package core poses as deta/internal/core for ctxplumb's I/O rule.
// Exported functions that transitively perform network I/O on their
// synchronous path must take a context.Context so callers can bound the
// operation; goroutine bodies, interface-pinned method names, and
// I/O-free functions are exempt.
package core

import (
	"context"
	"net"
)

type Endpoint struct {
	conn net.Conn
}

// Connect dials with no way for the caller to bound it.
func (e *Endpoint) Connect(addr string) error { // want ctxplumb
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	e.conn = c
	return nil
}

// ConnectCtx is the same dial with a context; no finding.
func (e *Endpoint) ConnectCtx(ctx context.Context, addr string) error {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	e.conn = c
	return nil
}

// send is unexported network I/O — not flagged itself (callers in this
// package decide the surface), but it makes exported callers I/O-bearing.
func (e *Endpoint) send(b []byte) error {
	_, err := e.conn.Write(b)
	return err
}

// Broadcast transitively writes to the network through send.
func (e *Endpoint) Broadcast(b []byte) error { // want ctxplumb
	return e.send(b)
}

// Spawn only does I/O in a goroutine the caller does not wait for.
func (e *Endpoint) Spawn(b []byte) {
	go func() { _ = e.send(b) }()
}

// Read is pinned by the io.Reader contract; bounded by Close.
func (e *Endpoint) Read(p []byte) (int, error) {
	return e.conn.Read(p)
}

// Checksum performs no I/O at all.
func Checksum(b []byte) byte {
	var x byte
	for _, c := range b {
		x ^= c
	}
	return x
}
