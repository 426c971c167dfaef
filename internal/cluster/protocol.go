// Package cluster implements FChain's decentralized runtime (paper Fig. 1):
// slave daemons colocated with the monitored hosts run normal fluctuation
// modeling and abnormal change point selection; a master daemon triggers
// the slaves when a performance anomaly is detected, gathers their
// per-component reports, and runs the integrated fault diagnosis.
//
// The wire protocol runs over TCP, 11 frame types in all: a slave dials the
// master, registers the components it monitors, and then answers analyze
// requests. Every frame is a newline-terminated JSON header; a replicate
// frame that carries model state adds a body of state_len raw bytes after
// the header's newline, the binary encoding of a core.ReplDelta. The paper
// relies on NTP to keep host clocks within a few milliseconds (§II-B fn. 2);
// collector clocks are not corrected here.
package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fchain/internal/core"
)

// Message types exchanged between master and slaves.
const (
	typeRegister = "register"
	typeAnalyze  = "analyze"
	typeReports  = "reports"
	typePing     = "ping"
	typePong     = "pong"
	typeError    = "error"
	// Service-mode frames: a violation client (an SLO detector) dials the
	// master and streams violate frames; each is answered by a verdict frame
	// correlated by ID.
	typeViolate = "violate"
	typeVerdict = "verdict"
	// Sharded-mode frames. The master pushes each slave its authoritative
	// owned and shadowed component sets with an assign frame (acked).
	typeAssign = "assign"
	typeAck    = "ack"
	// Replication frame, the one carrier of model state between slaves. An
	// owner ships one component's state delta (a core.ReplDelta, encoded in
	// State, sequenced by Seq) upstream; the master relays it to the
	// component's replication target — its warm standby, or the recipient a
	// rebalance is moving it to — over the target's own connection and
	// echoes the target's ack (or a codeReplFull error asking for a full
	// resend) back to the owner. A replicate frame with an empty Component is the owner's
	// clean-tick marker: every delta of this replication round precedes it,
	// so the master can track per-slave replication lag from marker arrivals.
	typeReplicate = "replicate"
)

// roleAggregator marks a registration as an aggregator: the peer fans
// analyze requests out to its own subtree of slaves and merges their
// answers. An empty Role registers a plain slave.
const roleAggregator = "aggregator"

// envelope is the single frame shape for every message.
type envelope struct {
	Type string `json:"type"`
	// ID correlates an analyze request with its reports response.
	ID uint64 `json:"id,omitempty"`

	// Register fields. Role distinguishes aggregators from plain slaves;
	// Via names the aggregator a slave also answers through, so the master
	// can group its analyze fan-out into subtrees while keeping this direct
	// connection for fallback asks when that aggregator dies.
	Slave      string   `json:"slave,omitempty"`
	Components []string `json:"components,omitempty"`
	Role       string   `json:"role,omitempty"`
	Via        string   `json:"via,omitempty"`

	// Analyze fields. BudgetMS carries the master's remaining deadline
	// budget as a duration relative to frame arrival: the slave restates it
	// against its own clock, so the propagated deadline is clock-offset
	// corrected by construction (wire latency eats budget, erring safe).
	// Zero means no deadline.
	TV       int64 `json:"tv,omitempty"`
	LookBack int   `json:"lookback,omitempty"`
	BudgetMS int64 `json:"budget_ms,omitempty"`

	// Subtree lists, on an analyze frame sent to an aggregator, the slave
	// names the aggregator must cover; it answers with one Sub entry per
	// requested slave (its reports or a per-slave error) so the master keeps
	// exact per-slave coverage accounting through the tree.
	Subtree []string    `json:"subtree,omitempty"`
	Sub     []subAnswer `json:"sub,omitempty"`

	// Replicate fields: Component names the model, State carries its
	// core.ReplDelta's binary encoding, and Seq is the owner's per-component
	// replication sequence number, which the master records as sent on
	// arrival and acked on the target's response; a component is
	// warm-promotable only while the two match. State travels as the frame's
	// body, not in the header: writeFrame sets StateLen to its length and
	// readFrame reads that many bytes after the header, so a frame without a
	// State is the same JSON line it always was.
	Component string `json:"component,omitempty"`
	State     []byte `json:"-"`
	StateLen  int    `json:"state_len,omitempty"`
	Seq       uint64 `json:"seq,omitempty"`

	// Shadow lists, on an assign frame, the components this slave stands by
	// for: it keeps (or will receive) shadow monitors for them and drops
	// shadows for anything absent. Like Components, the list is
	// authoritative. ReplReset lists owned components whose standby changed
	// in this placement: the owner forgets its shipped floors so the next
	// replication tick re-ships the full snapshot — without it, a quiet
	// component (no new samples) would never warm its new standby. A frame
	// with a ReplReset list and nothing else is not a placement but a ship
	// request for components a rebalance is moving to a new owner: the owner
	// ships their full snapshots at once, tick or no tick, and then acks.
	Shadow    []string `json:"shadow,omitempty"`
	ReplReset []string `json:"repl_reset,omitempty"`

	// Reports fields.
	Reports []core.ComponentReport `json:"reports,omitempty"`

	// Violate fields. A violate frame reports one SLO violation for App,
	// owned by Tenant, detected at TV; BudgetMS (above) optionally bounds
	// how long the client will wait for the verdict. The master answers
	// with a verdict frame whose Verdict payload is a cluster.Verdict.
	Tenant  string          `json:"tenant,omitempty"`
	App     string          `json:"app,omitempty"`
	Verdict json.RawMessage `json:"verdict,omitempty"`

	// Error fields. Code classifies structured failures so the master can
	// react without parsing Err ("overloaded" = shed by slave admission
	// control, "panic" = the analyze handler recovered a panic, and the
	// service-mode intake codes below). RetryAfterMS accompanies
	// codeOverloaded sheds with the daemon's backoff hint, derived from its
	// admission queue depth, so clients stop hot-looping into a saturated
	// peer.
	Err          string `json:"err,omitempty"`
	Code         string `json:"code,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// subAnswer is one subtree slave's outcome inside an aggregator's merged
// reports frame. Exactly one of Reports or Err is meaningful; WaitNS carries
// the answer latency the aggregator measured for the master's latency
// histogram.
type subAnswer struct {
	Slave   string                 `json:"slave"`
	Reports []core.ComponentReport `json:"reports,omitempty"`
	WaitNS  int64                  `json:"wait_ns,omitempty"`
	Err     string                 `json:"err,omitempty"`
	Code    string                 `json:"code,omitempty"`
}

// Error frame classification codes.
const (
	codeOverloaded = "overloaded"
	codePanic      = "panic"
	// codeReplFull asks the replication primary for a full-snapshot resend:
	// the standby's shadow is missing (or its Base precondition failed), or
	// the relay could not reach it coherently. The primary reacts by
	// forgetting its shipped floors for the component.
	codeReplFull      = "repl_full"
	codeUnknownTenant = "unknown_tenant"
	codeQuota         = "quota"
	codeDraining      = "draining"
	codeNoService     = "no_service"
)

// frameLimit bounds a single frame, header and body together, to keep a
// misbehaving peer from forcing unbounded allocation; readFrame ends the
// connection past it. The largest frames measured: 336,420 bytes for an
// aggregator's merged reports frame in TestScaleTenThousandComponents (5,000
// components per subtree), and 202,630 bytes for a full-snapshot replicate
// frame of a default-config component with every ring full
// (BenchmarkModuleReplicate). The limit keeps more than 12x headroom over
// both.
const frameLimit = 4 << 20

// connWriter serializes frame writes to a shared net.Conn. Both daemons
// write one connection from several goroutines (the master's Localize
// fan-out races its serveConn pong path; the slave's report path races
// Ping): without whole-frame serialization those writes can interleave on
// the wire and corrupt the framed stream, especially once the TCP
// stack splits a large frame across partial writes.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func newConnWriter(conn net.Conn) *connWriter { return &connWriter{conn: conn} }

// write marshals env and writes it as one uninterruptible frame.
func (w *connWriter) write(env *envelope, timeout time.Duration) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return writeFrame(w.conn, env, timeout)
}

// writeFrame writes one frame: the envelope as a newline-terminated JSON
// header, then its State, if any, as the body, all in one Write so a frame
// never interleaves with another and leaves the socket whole. Callers
// sharing a connection across goroutines must go through connWriter.
func writeFrame(conn net.Conn, env *envelope, timeout time.Duration) error {
	if env.StateLen != len(env.State) {
		head := *env
		head.StateLen = len(env.State)
		env = &head
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("cluster: marshal frame: %w", err)
	}
	data = append(data, '\n')
	data = append(data, env.State...)
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("cluster: set write deadline: %w", err)
		}
	}
	if _, err := conn.Write(data); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	return nil
}

// errFrameTooLarge ends a connection whose peer sent a frame longer than
// frameLimit.
var errFrameTooLarge = fmt.Errorf("cluster: frame exceeds %d bytes", frameLimit)

// readFrame reads one frame of at most frameLimit bytes: a newline-terminated
// JSON header and, when the header has a state_len, that many body bytes
// into State. A header that fits the reader's buffer is decoded in place
// (the decoded envelope keeps no reference to it: json.Unmarshal copies
// strings); a longer one is collected, and a peer that keeps sending past the
// limit without a newline gets errFrameTooLarge instead of unbounded
// buffering. A state_len that is negative or would take the frame past the
// limit ends the connection before anything is allocated for the body.
func readFrame(r *bufio.Reader) (*envelope, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		long := append([]byte(nil), line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = r.ReadSlice('\n')
			if len(long)+len(line) > frameLimit {
				return nil, errFrameTooLarge
			}
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("cluster: malformed frame: %w", err)
	}
	switch n := env.StateLen; {
	case n < 0:
		return nil, fmt.Errorf("cluster: malformed frame: state_len %d", n)
	case n > frameLimit-len(line):
		return nil, fmt.Errorf("%w: %d-byte header, %d-byte body", errFrameTooLarge, len(line), n)
	case n > 0:
		env.State = make([]byte, n)
		if _, err := io.ReadFull(r, env.State); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("cluster: frame body: %w", err)
		}
		env.StateLen = 0
	}
	return &env, nil
}

// newReader returns a size-bounded buffered reader for frame parsing.
func newReader(conn net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(conn, 64<<10)
}
