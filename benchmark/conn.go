package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// countingConn is a net.Conn that counts the bytes crossing it and remembers
// when its owner last finished a write. The benchmark hands these to slaves
// and aggregators through their dialer options, so wire volume and the
// moment a daemon answered are both observed from outside the program.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
	lastWrite     atomic.Int64 // UnixNano of the latest completed Write
	lastPayload   atomic.Int64 // UnixNano of the latest Read or Write that moved a state-carrying frame
}

// payloadBytes separates frames that carry monitor state or reports (a
// replication delta is several hundred bytes, a snapshot far more) from the
// protocol's bookkeeping frames (acks, heartbeats, the replication tick
// marker: under a hundred). The program writes one frame per Write call; a
// Read may return several small frames at once, which only happens while the
// peer is busy and so errs towards "not yet quiet".
const payloadBytes = 200

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	if n >= payloadBytes {
		c.lastPayload.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	now := time.Now().UnixNano()
	c.lastWrite.Store(now)
	if len(p) >= payloadBytes {
		c.lastPayload.Store(now)
	}
	return n, err
}

// wireTap owns every countingConn one daemon dialed.
type wireTap struct {
	mu    sync.Mutex
	conns []*countingConn
}

// dial is the dialer handed to WithDialer / WithAggregatorDialer.
func (w *wireTap) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	w.mu.Lock()
	w.conns = append(w.conns, cc)
	w.mu.Unlock()
	return cc, nil
}

// bytes is the total volume, both directions, over all of the tap's conns.
func (w *wireTap) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	for _, c := range w.conns {
		n += c.read.Load() + c.written.Load()
	}
	return n
}

// lastWrite is the latest completed write on any of the tap's conns.
func (w *wireTap) lastWrite() time.Time {
	return w.latest(func(c *countingConn) int64 { return c.lastWrite.Load() })
}

// lastPayload is the latest moment a state-carrying frame crossed any of the
// tap's conns, in either direction.
func (w *wireTap) lastPayload() time.Time {
	return w.latest(func(c *countingConn) int64 { return c.lastPayload.Load() })
}

func (w *wireTap) latest(of func(*countingConn) int64) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ns int64
	for _, c := range w.conns {
		if t := of(c); t > ns {
			ns = t
		}
	}
	return time.Unix(0, ns)
}
