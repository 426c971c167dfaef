package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"fchain/internal/core"
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
// that it never panics and accepts no line longer than frameLimit.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"type":"ping","id":1}`+"\n"), uint16(1))
	f.Add([]byte(`{"type":"reports","id":2,"reports":[{"component":"a"}]}`+"\n{"), uint16(3))
	f.Add([]byte(`{"type":"analyze","tv":5,"budget_ms":100,"subtree":["a","b"]}`), uint16(2))
	f.Add(bytes.Repeat([]byte("x"), 128), uint16(0xffff))
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		if len(data) == 0 {
			return
		}
		src := &countingReader{r: &repeatReader{data: data, n: min(len(data)*int(reps), 3*frameLimit)}}
		r := bufio.NewReaderSize(src, 64<<10)
		consumed := 0
		for {
			_, err := readFrame(r)
			if errors.Is(err, io.EOF) || errors.Is(err, errFrameTooLarge) {
				return
			}
			now := src.n - r.Buffered()
			if line := now - consumed; line > frameLimit {
				t.Fatalf("accepted a %d-byte line, limit %d", line, frameLimit)
			}
			consumed = now
		}
	})
}
