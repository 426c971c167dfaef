package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fchain/internal/core"
	"fchain/internal/metric"
)

// TestOversizedFrameDisconnects: a registered peer that streams far past
// frameLimit without a newline is disconnected and evicted, and the master
// has not buffered what it streamed.
func TestOversizedFrameDisconnects(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, _ := fakeSlave(t, master.Addr(), "flood", []string{"f"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const streamed = 4 * frameLimit
	chunk := bytes.Repeat([]byte("x"), 64<<10)
	sent := 0
	for sent < streamed {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Write(chunk)
		sent += n
		if err != nil {
			break
		}
	}
	// The master must hang up: the read sees the close, not a timeout.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %d bytes without a newline (read: %v)", sent, err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 0 }, "eviction")
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > streamed/4 {
		t.Errorf("master heap grew %d bytes after a %d-byte oversized line", grew, sent)
	}
}

// repeatReader yields data repeated until n bytes have been read.
type repeatReader struct {
	data []byte
	off  int
	n    int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := 0
	for k < len(p) && k < r.n {
		c := copy(p[k:min(len(p), r.n)], r.data[r.off:])
		k += c
		r.off = (r.off + c) % len(r.data)
	}
	r.n -= k
	return k, nil
}

// countingReader counts the bytes handed to the bufio.Reader above it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrame feeds readFrame arbitrary byte streams — the fuzzed bytes
// repeated reps times, so lines past frameLimit are reachable — and requires
// that it never panics and accepts no line longer than frameLimit. A frame
// carrying a State is relayed as the master relays it, and the State must
// read back byte-identical.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"type":"ping","id":1}`+"\n"), uint16(1))
	f.Add([]byte(`{"type":"reports","id":2,"reports":[{"component":"a"}]}`+"\n{"), uint16(3))
	f.Add([]byte(`{"type":"analyze","tv":5,"budget_ms":100,"subtree":["a","b"]}`), uint16(2))
	f.Add(bytes.Repeat([]byte("x"), 128), uint16(0xffff))
	f.Add([]byte(`{"type":"replicate","id":3,"slave":"s","component":"db","seq":9,`+
		`"state":{"component":"db","base":{"cpu":30},"samples":{"cpu":[{"t0":31,"v":"AAAAAAAA8D8="}]}}}`+"\n"), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		if len(data) == 0 {
			return
		}
		src := &countingReader{r: &repeatReader{data: data, n: min(len(data)*int(reps), 3*frameLimit)}}
		r := bufio.NewReaderSize(src, 64<<10)
		consumed := 0
		for {
			env, err := readFrame(r)
			if errors.Is(err, io.EOF) || errors.Is(err, errFrameTooLarge) {
				return
			}
			now := src.n - r.Buffered()
			if line := now - consumed; line > frameLimit {
				t.Fatalf("accepted a %d-byte line, limit %d", line, frameLimit)
			}
			consumed = now
			if err == nil && len(env.State) > 0 {
				relayed := relayFrame(t, env)
				if !bytes.Equal(relayed.State, env.State) {
					t.Fatalf("relayed state %q, read %q", relayed.State, env.State)
				}
			}
		}
	})
}

// bufConn is a net.Conn whose writes land in buf; no other method is used.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

// roundTrip writes env with writeFrame and reads it back with readFrame,
// requiring the wire to carry exactly one line.
func roundTrip(t testing.TB, env *envelope) *envelope {
	t.Helper()
	var c bufConn
	if err := writeFrame(&c, env, time.Second); err != nil {
		t.Fatal(err)
	}
	line := c.buf.Bytes()
	if i := bytes.IndexByte(line, '\n'); i != len(line)-1 {
		t.Fatalf("frame %q is not one newline-terminated line", line)
	}
	got, err := readFrame(bufio.NewReader(&c.buf))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// relayFrame forwards env as the master relays a replication frame and
// reads back what the target receives.
func relayFrame(t testing.TB, env *envelope) *envelope {
	t.Helper()
	return roundTrip(t, &envelope{Type: typeReplicate, Component: env.Component, Seq: env.Seq, State: env.State})
}

// TestWriteFrameStateVerbatim: writeFrame appends a State to the envelope
// without re-encoding it. A frame read back keeps every header field and the
// State's bytes — whitespace included, which encoding/json would have
// compacted away — and so does the master's relay of it. A State holding a
// newline would split the frame and is refused before anything is written.
func TestWriteFrameStateVerbatim(t *testing.T) {
	m := core.NewMonitor("db", core.Config{})
	for ts := int64(1); ts <= 40; ts++ {
		if err := m.Observe(ts, metric.CPU, float64(ts)/3); err != nil {
			t.Fatal(err)
		}
	}
	var d core.ReplDelta
	if _, ok := m.DeltaInto(&d, map[string]int64{"cpu": 20}); !ok {
		t.Fatal("DeltaInto fell off the incremental path")
	}
	delta, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	for name, state := range map[string]json.RawMessage{
		"delta":      delta,
		"whitespace": json.RawMessage("{ \"component\" :\t\"db\",\r\"base\": {} }"),
		"scalar":     json.RawMessage(`null`),
	} {
		t.Run(name, func(t *testing.T) {
			sent := &envelope{Type: typeReplicate, ID: 7, Slave: "s1", Components: []string{"a", "b"},
				Role: "r", Via: "agg", TV: 11, LookBack: 12, BudgetMS: 13, Subtree: []string{"s2"},
				Component: "db", State: state, Seq: 42, Shadow: []string{"c"}, ReplReset: []string{"d"},
				Tenant: "t", App: "app", Err: "e", Code: codeReplFull, RetryAfterMS: 14}
			got := roundTrip(t, sent)
			if !reflect.DeepEqual(got, sent) {
				t.Fatalf("read back %+v, sent %+v", got, sent)
			}
			if relayed := relayFrame(t, got); !bytes.Equal(relayed.State, state) ||
				relayed.Component != "db" || relayed.Seq != 42 {
				t.Fatalf("relay delivered component %q seq %d state %q, want db 42 %q",
					relayed.Component, relayed.Seq, relayed.State, state)
			}
		})
	}

	var c bufConn
	err = writeFrame(&c, &envelope{Type: typeReplicate, Component: "db", State: json.RawMessage("{\"a\":\n1}")}, time.Second)
	if !errors.Is(err, errStateNewline) {
		t.Fatalf("err = %v, want errStateNewline", err)
	}
	if c.buf.Len() != 0 {
		t.Fatalf("a refused frame wrote %q", c.buf.Bytes())
	}
}
