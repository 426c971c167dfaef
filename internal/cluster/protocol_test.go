package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
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
// repeated reps times, so frames past frameLimit are reachable — and requires
// that it never panics and accepts no frame, header and body together,
// longer than frameLimit. A frame carrying a State is relayed as the master
// relays it, and the State must read back byte-identical.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"type":"ping","id":1}`+"\n"), uint16(1))
	f.Add([]byte(`{"type":"reports","id":2,"reports":[{"component":"a"}]}`+"\n{"), uint16(3))
	f.Add([]byte(`{"type":"analyze","tv":5,"budget_ms":100,"subtree":["a","b"]}`), uint16(2))
	f.Add(bytes.Repeat([]byte("x"), 128), uint16(0xffff))
	d := core.ReplDelta{Component: "db", Base: map[string]int64{"cpu": 30},
		Samples: map[string][]core.ReplRun{"cpu": {{T0: 31, V: []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}}}}}
	body, _ := d.AppendBinary(nil)
	replicate := func(stateLen int) []byte {
		return fmt.Appendf(nil, `{"type":"replicate","id":3,"slave":"s","component":"db","state_len":%d,"seq":9}`+"\n", stateLen)
	}
	f.Add(append(replicate(len(body)), body...), uint16(2))
	f.Add(append(replicate(-1), body...), uint16(1))           // negative state_len
	f.Add(append(replicate(frameLimit), body...), uint16(1))   // body past frameLimit
	f.Add(append(replicate(len(body)+10), body...), uint16(1)) // truncated body
	f.Add(append(replicate(5), "{\n}\n{"...), uint16(3))       // body holding a newline and a brace
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		if len(data) == 0 {
			return
		}
		src := &countingReader{r: &repeatReader{data: data, n: min(len(data)*int(reps), 3*frameLimit)}}
		r := bufio.NewReaderSize(src, 64<<10)
		consumed := 0
		for {
			env, err := readFrame(r)
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errFrameTooLarge) {
				return
			}
			now := src.n - r.Buffered()
			if frame := now - consumed; frame > frameLimit {
				t.Fatalf("accepted a %d-byte frame, limit %d", frame, frameLimit)
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
	buf    bytes.Buffer
	writes int
}

func (c *bufConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

// roundTrip writes env with writeFrame and reads it back with readFrame,
// requiring one Write of exactly a JSON header line followed by the State.
func roundTrip(t testing.TB, env *envelope) *envelope {
	t.Helper()
	var c bufConn
	if err := writeFrame(&c, env, time.Second); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 {
		t.Fatalf("frame took %d writes, want 1", c.writes)
	}
	wire := c.buf.Bytes()
	if i := bytes.IndexByte(wire, '\n'); i < 0 || !bytes.Equal(wire[i+1:], env.State) {
		t.Fatalf("frame %q is not a header line followed by the state", wire)
	}
	got, err := readFrame(bufio.NewReader(&c.buf))
	if err != nil {
		t.Fatal(err)
	}
	if c.buf.Len() != 0 {
		t.Fatalf("readFrame left %d bytes of the frame unread", c.buf.Len())
	}
	return got
}

// relayFrame forwards env as the master relays a replication frame and
// reads back what the target receives.
func relayFrame(t testing.TB, env *envelope) *envelope {
	t.Helper()
	return roundTrip(t, &envelope{Type: typeReplicate, Component: env.Component, Seq: env.Seq, State: env.State})
}

// TestWriteFrameStateVerbatim: a State travels as the frame's body, raw. A
// frame read back keeps every header field and the State's bytes, and so
// does the master's relay of it, whatever the bytes: an encoded replication
// delta, JSON-looking text with whitespace, every byte value, a lone
// newline.
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
	delta, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for name, state := range map[string][]byte{
		"delta":      delta,
		"whitespace": []byte("{ \"component\" :\t\"db\",\r\"base\": {} }"),
		"scalar":     []byte(`null`),
		"every byte": every,
		"newline":    []byte("\n"),
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
}

// TestStatelessFramesUnchanged pins the frames that carry no replication
// state to the bytes the previous, all-JSON protocol wrote for them: moving
// the State into a body changed replicate frames and nothing else.
func TestStatelessFramesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		env  *envelope
		want string
	}{
		{&envelope{Type: typeAnalyze, ID: 3, TV: 1700, LookBack: 100, BudgetMS: 250, Subtree: []string{"s1", "s2"}},
			`{"type":"analyze","id":3,"tv":1700,"lookback":100,"budget_ms":250,"subtree":["s1","s2"]}`},
		{&envelope{Type: typeReports, ID: 3, Reports: []core.ComponentReport{{Component: "db"}},
			Sub: []subAnswer{{Slave: "s1", WaitNS: 5, Err: "x", Code: codeOverloaded}}},
			`{"type":"reports","id":3,"sub":[{"slave":"s1","wait_ns":5,"err":"x","code":"overloaded"}],"reports":[{"component":"db","onset":0}]}`},
		{&envelope{Type: typeAssign, ID: 9, Components: []string{"a", "b"}, Shadow: []string{"c"}, ReplReset: []string{"a"}},
			`{"type":"assign","id":9,"components":["a","b"],"shadow":["c"],"repl_reset":["a"]}`},
		{&envelope{Type: typeAck, ID: 9, Component: "db", Seq: 4},
			`{"type":"ack","id":9,"component":"db","seq":4}`},
		{&envelope{Type: typePing, ID: 12}, `{"type":"ping","id":12}`},
		{&envelope{Type: typeReplicate, ID: 13, Slave: "s1"}, `{"type":"replicate","id":13,"slave":"s1"}`},
		{&envelope{Type: typeError, ID: 13, Component: "db", Code: codeReplFull, Err: "no shadow"},
			`{"type":"error","id":13,"component":"db","err":"no shadow","code":"repl_full"}`},
	} {
		var c bufConn
		if err := writeFrame(&c, tc.env, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := c.buf.String(); got != tc.want+"\n" {
			t.Errorf("%s frame\ngot  %s\nwant %s", tc.env.Type, got, tc.want)
		}
	}
}

// TestReadFrameRefusesBadBodies: a state_len that is negative, that would
// take the frame past frameLimit, or that the stream cannot fill ends the
// read with an error, never with a frame.
func TestReadFrameRefusesBadBodies(t *testing.T) {
	header := func(n int) string {
		return fmt.Sprintf(`{"type":"replicate","component":"db","state_len":%d}`+"\n", n)
	}
	for name, tc := range map[string]struct {
		wire string
		want error
	}{
		"negative":  {header(-1) + "xx", nil},
		"too large": {header(frameLimit) + "xx", errFrameTooLarge},
		"truncated": {header(10) + "xx", io.ErrUnexpectedEOF},
		"no body":   {header(10), io.ErrUnexpectedEOF},
	} {
		env, err := readFrame(bufio.NewReader(strings.NewReader(tc.wire)))
		if env != nil || err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: readFrame = %v, %v; want no frame and %v", name, env, err, tc.want)
		}
	}
}
