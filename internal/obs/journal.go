package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Event is one journal entry: a monotonically increasing sequence number, a
// wall-clock timestamp, an event type, and an arbitrary JSON payload.
// Events are appended as single JSONL lines, so the journal can be tailed,
// grepped, and replayed with standard tools.
type Event struct {
	Seq  int64           `json:"seq"`
	TS   int64           `json:"ts_unix_ns"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Journal is an append-only JSONL event log: the machine-readable record of
// what the pipeline did and why (which components were analyzed, what was
// selected, what the verdict was). Records are flushed per event, so a
// crash loses at most the entry being written — and a partial final line is
// exactly what ReadJournal tolerates. A nil *Journal discards everything.
//
// Sequence numbers survive restarts: opening a journal resumes numbering
// after the highest sequence already on disk (across rotated generations),
// so service-mode replay can match accepted violations to served verdicts
// without collisions between runs.
//
// With a byte cap set (OpenJournalRotating) the journal rotates: when an
// append pushes the current file past the cap, it is renamed to path.1
// (shifting older generations to path.2, path.3, ... and dropping the ones
// past the keep count) and a fresh file is started. Long-lived service
// deployments thus hold disk usage near cap*(keep+1) instead of leaking.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	seq   int64
	clock func() int64
	path  string

	maxBytes int64 // rotate when the current file exceeds this; 0 = never
	keep     int   // rotated generations retained
	size     int64 // bytes in the current file
}

// OpenJournal opens (creating if needed) an append-mode JSONL journal at
// path. The journal never rotates; use OpenJournalRotating for long-lived
// service deployments.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalRotating(path, 0, 0)
}

// OpenJournalRotating is OpenJournal with a size cap: once an append pushes
// the current file past maxBytes, the file is rotated to path.1 (older
// generations shift up; at most keep rotated files are retained) and a fresh
// file is started. maxBytes <= 0 disables rotation; keep < 0 is treated as 0
// (rotation truncates without retaining generations).
func OpenJournalRotating(path string, maxBytes int64, keep int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	if keep < 0 {
		keep = 0
	}
	return &Journal{
		f:        f,
		w:        bufio.NewWriter(f),
		seq:      lastSeq(path, keep),
		clock:    func() int64 { return time.Now().UnixNano() },
		path:     path,
		maxBytes: maxBytes,
		keep:     keep,
		size:     size,
	}, nil
}

// lastSeq returns the highest sequence number already recorded at path
// (scanning rotated generations newest-first until one holds events), so a
// reopened journal continues numbering instead of reusing sequence numbers.
func lastSeq(path string, keep int) int64 {
	for _, p := range append([]string{path}, generationPaths(path, keep)...) {
		events, err := ReadJournalFile(p)
		if err != nil && len(events) == 0 {
			continue
		}
		if len(events) > 0 {
			max := int64(0)
			for _, ev := range events {
				if ev.Seq > max {
					max = ev.Seq
				}
			}
			return max
		}
	}
	return 0
}

// generationPaths lists the rotated generation files newest-first, capped at
// keep when keep > 0 and otherwise scanning until the first gap.
func generationPaths(path string, keep int) []string {
	var out []string
	for i := 1; ; i++ {
		if keep > 0 && i > keep {
			break
		}
		p := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		out = append(out, p)
	}
	return out
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Record appends one event, marshaling data as its payload, and flushes it
// to the OS. On a nil journal it is a no-op.
func (j *Journal) Record(eventType string, data any) error {
	_, err := j.RecordSeq(eventType, data)
	return err
}

// RecordSeq is Record also returning the appended event's sequence number
// (0 on a nil journal). Service-mode write-ahead records use the sequence to
// correlate a violation's acceptance with the verdict that later served it.
func (j *Journal) RecordSeq(eventType string, data any) (int64, error) {
	if j == nil {
		return 0, nil
	}
	var payload json.RawMessage
	if data != nil {
		raw, err := json.Marshal(data)
		if err != nil {
			return 0, fmt.Errorf("obs: marshal journal event %q: %w", eventType, err)
		}
		payload = raw
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	line, err := json.Marshal(Event{Seq: j.seq, TS: j.clock(), Type: eventType, Data: payload})
	if err != nil {
		return 0, fmt.Errorf("obs: marshal journal event %q: %w", eventType, err)
	}
	if _, err := j.w.Write(line); err != nil {
		return 0, fmt.Errorf("obs: append journal: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return 0, fmt.Errorf("obs: append journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return 0, fmt.Errorf("obs: flush journal: %w", err)
	}
	j.size += int64(len(line)) + 1
	if j.maxBytes > 0 && j.size > j.maxBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return j.seq, nil
}

// rotateLocked closes the current file, shifts the retained generations up
// one slot (path -> path.1 -> path.2 -> ...), and starts a fresh file. The
// caller holds j.mu.
func (j *Journal) rotateLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	if j.keep == 0 {
		// No generations retained: rotation just truncates.
		if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("obs: rotate journal: %w", err)
		}
	} else {
		os.Remove(fmt.Sprintf("%s.%d", j.path, j.keep)) // oldest falls off
		for i := j.keep - 1; i >= 1; i-- {
			from := fmt.Sprintf("%s.%d", j.path, i)
			if _, err := os.Stat(from); err != nil {
				continue
			}
			if err := os.Rename(from, fmt.Sprintf("%s.%d", j.path, i+1)); err != nil {
				return fmt.Errorf("obs: rotate journal: %w", err)
			}
		}
		if err := os.Rename(j.path, j.path+".1"); err != nil {
			return fmt.Errorf("obs: rotate journal: %w", err)
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.size = 0
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	flushErr := j.w.Flush()
	closeErr := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// ReadJournal parses every complete event line of a journal, returning the
// events in order. Rotated generations (path.N oldest ... path.1 newest) are
// read before the current file, so a rotated service journal replays as one
// contiguous stream. A malformed complete line is an error; a trailing
// partial line (a write cut off by a crash) is tolerated and discarded,
// mirroring how the checkpoint loader treats torn files.
func ReadJournal(path string) ([]Event, error) {
	gens := generationPaths(path, 0)
	var events []Event
	for i := len(gens) - 1; i >= 0; i-- { // oldest generation first
		evs, err := ReadJournalFile(gens[i])
		if err != nil {
			return events, err
		}
		events = append(events, evs...)
	}
	evs, err := ReadJournalFile(path)
	if err != nil {
		// The current file must exist unless generations do: keep the
		// original not-found error shape when nothing was readable.
		if len(events) == 0 {
			return nil, err
		}
		if !os.IsNotExist(err) {
			return events, err
		}
	}
	return append(events, evs...), nil
}

// ReadJournalFile parses one journal file (no generation stitching),
// tolerating a torn trailing line exactly like ReadJournal.
func ReadJournalFile(path string) ([]Event, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var events []Event
	start := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\n' {
			continue
		}
		lineStart := start
		line := raw[lineStart:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return events, fmt.Errorf("obs: journal %s: malformed event at byte %d: %w", path, lineStart, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file, fsync,
// and rename, so readers never observe a torn file. It is the one atomic
// writer: model checkpoints, the debug server's persisted traces and the
// golden-file updater all go through it, because a crash mid-write must
// leave either the old content or the new, never a mix.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("obs: atomic write temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	return nil
}
