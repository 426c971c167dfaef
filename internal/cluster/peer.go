package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// slaveConn is one end's state of a connection it sends correlated requests
// over. The master keeps one per registered slave and aggregator, an
// aggregator one per subtree slave, and a slave one per upstream it pings —
// all speak the same request/response protocol.
type slaveConn struct {
	name       string
	components []string
	via        string // aggregator this slave also answers through ("" = direct only)
	w          *connWriter
	nextID     atomic.Uint64

	// replQ carries this slave's inbound replicate frames to a dedicated
	// drainer goroutine: relaying blocks on the standby's ack, so it cannot
	// run on the reader (pings would starve), and per-frame goroutines would
	// lose the per-component ordering the delta replay depends on. Nil for
	// aggregators. The reader is the only sender and closes it on exit.
	replQ chan *envelope

	mu       sync.Mutex
	pending  map[uint64]chan *envelope
	dead     bool // connection gone; no retries will succeed
	misses   int  // consecutive heartbeat misses
	failures int  // consecutive analyze failures (breaker input)
	openedAt time.Time
	open     bool // breaker open
}

// newPeer wraps an established connection.
func newPeer(name string, conn net.Conn) *slaveConn {
	return &slaveConn{name: name, w: newConnWriter(conn), pending: make(map[uint64]chan *envelope)}
}

// acceptPeers accepts connections until the listener closes and serves each
// on its own goroutine; a panicking handler costs its connection (reported
// through panicked), never the daemon.
func acceptPeers(ln net.Listener, wg *sync.WaitGroup, serve func(net.Conn), panicked func(r any)) {
	defer wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked(r)
					_ = conn.Close()
				}
			}()
			serve(conn)
		}()
	}
}

// enroll registers sc in tier under the caller's lock. A duplicate
// registration (typically a reconnecting peer whose old connection has not
// yet died) replaces the stale connection and closes it; its reader then
// exits and fails whatever was in flight on it, so nothing leaks.
func enroll(tier map[string]*slaveConn, sc *slaveConn) {
	if old := tier[sc.name]; old != nil {
		_ = old.w.conn.Close()
	}
	tier[sc.name] = sc
}

// tierNames lists the peers registered in tier by name, sorted.
func tierNames(mu *sync.Mutex, tier map[string]*slaveConn) []string {
	mu.Lock()
	defer mu.Unlock()
	return slices.Sorted(maps.Keys(tier))
}

// serveFrames routes the peer's inbound frames until the connection dies:
// responses (reports, verdicts, errors, pongs, acks) resolve their request,
// pings are answered in place, and replicate frames go to onReplicate (nil
// for peers that do not replicate).
func (sc *slaveConn) serveFrames(r *bufio.Reader, onReplicate func(*envelope)) {
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		switch env.Type {
		case typeReports, typeError, typePong, typeAck, typeVerdict:
			sc.resolve(env)
		case typePing:
			_ = sc.w.write(&envelope{Type: typePong, ID: env.ID}, 5*time.Second)
		case typeReplicate:
			if onReplicate != nil {
				onReplicate(env)
			}
		}
	}
}

// errAborted is returned by request when the caller's done channel closed
// before the peer replied.
var errAborted = errors.New("cluster: request aborted")

// writeTimeout bounds writing one frame when the caller sets no tighter bound.
const writeTimeout = 10 * time.Second

// request is the one correlated exchange with a peer: it registers a pending
// ID, writes the frame, and waits for the reply. It fails when the peer is
// (or goes) disconnected, when no reply arrives within timeout (<= 0 waits as
// long as done allows), and with errAborted when done closes first. An error
// frame comes back as both the envelope (for its Code) and an error carrying
// its text.
func (sc *slaveConn) request(req *envelope, timeout time.Duration, done <-chan struct{}) (*envelope, error) {
	req.ID = sc.nextID.Add(1)
	ch := make(chan *envelope, 1)
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return nil, fmt.Errorf("cluster: %s disconnected", sc.name)
	}
	sc.pending[req.ID] = ch
	sc.mu.Unlock()
	forget := func() {
		sc.mu.Lock()
		delete(sc.pending, req.ID)
		sc.mu.Unlock()
	}
	var expired <-chan time.Time
	writeBy := writeTimeout
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired, writeBy = timer.C, min(timeout, writeTimeout)
	}
	if err := sc.w.write(req, writeBy); err != nil {
		forget()
		return nil, err
	}
	select {
	case env := <-ch:
		if env.Type == typeError {
			return env, errors.New(env.Err)
		}
		return env, nil
	case <-expired:
		forget()
		return nil, fmt.Errorf("cluster: %s: %s timed out", sc.name, req.Type)
	case <-done:
		forget()
		return nil, errAborted
	}
}

// resolve hands a response frame to the request waiting for it, if any.
func (sc *slaveConn) resolve(env *envelope) {
	sc.mu.Lock()
	ch, ok := sc.pending[env.ID]
	delete(sc.pending, env.ID)
	sc.mu.Unlock()
	if ok {
		ch <- env
	}
}

// failAll marks the connection dead and fails every in-flight request so
// waiting Localize goroutines return immediately instead of burning their
// full timeout.
func (sc *slaveConn) failAll(reason string) {
	sc.mu.Lock()
	pending := sc.pending
	sc.pending = make(map[uint64]chan *envelope)
	sc.dead = true
	sc.mu.Unlock()
	for _, ch := range pending {
		ch <- &envelope{Type: typeError, Err: reason}
	}
}

// isDead reports whether the connection has been torn down.
func (sc *slaveConn) isDead() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.dead
}

// breakerOpen reports whether analyze fan-out should skip this slave; an
// open breaker half-opens (admits one probe attempt) after cooldown.
func (sc *slaveConn) breakerOpen(cooldown time.Duration) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.open {
		return false
	}
	if time.Since(sc.openedAt) >= cooldown {
		sc.open = false // half-open: let the next attempt probe it
		return false
	}
	return true
}

// recordResult feeds the breaker with an analyze outcome.
func (sc *slaveConn) recordResult(ok bool, threshold int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if ok {
		sc.failures = 0
		sc.open = false
		return
	}
	sc.failures++
	if threshold > 0 && sc.failures >= threshold && !sc.open {
		sc.open = true
		sc.openedAt = time.Now()
	}
}

// quorumGraceCap bounds how long gather keeps collecting stragglers after
// the quorum is met: a quarter of the remaining deadline, at most this.
const quorumGraceCap = 500 * time.Millisecond

// quorumNeed turns a quorum fraction into an answer count over n peers; 0
// means no quorum (wait for everyone within the deadline).
func quorumNeed(frac float64, n int) int {
	if frac <= 0 || n == 0 {
		return 0
	}
	return min(max(int(math.Ceil(frac*float64(n))), 1), n)
}

// gather is the one quorum-then-grace collection loop: it reads answers until
// every name has answered, the deadline passes, or done closes, and returns
// one entry per name — what arrived, plus lost(name) for whoever did not make
// it. key names an answer's peer and says whether it counts toward need.
//
// Meeting the quorum does not exit on a hair trigger: the slowest healthy
// answer is routinely the faulty component's (an abnormal series yields more
// change-point candidates, so its selection costs the most), and dropping it
// on every healthy run would defeat the diagnosis. Stragglers get a bounded
// grace after quorum; only what is still missing when it lapses is lost.
func gather[T any](answers <-chan T, names []string, need int, key func(T) (name string, good bool),
	lost func(name string) T, deadline time.Time, done <-chan struct{}) []T {
	out := make([]T, 0, len(names))
	got := make(map[string]bool, len(names))
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	good, inGrace := 0, false
collect:
	for len(out) < len(names) {
		select {
		case a := <-answers:
			name, ok := key(a)
			got[name] = true
			out = append(out, a)
			if ok {
				good++
			}
			if need > 0 && good >= need && !inGrace {
				grace := min(quorumGraceCap, time.Until(deadline)/4)
				if grace <= 0 {
					break collect
				}
				inGrace = true
				timer.Reset(grace)
			}
		case <-timer.C:
			break collect
		case <-done:
			break collect
		}
	}
	for _, name := range names {
		if !got[name] {
			out = append(out, lost(name))
		}
	}
	return out
}
