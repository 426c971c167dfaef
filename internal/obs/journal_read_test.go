package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReadJournalFileReportsMalformedLineStart checks that a malformed line
// is reported at its own first byte, not at the start of the line after it.
func TestReadJournalFileReportsMalformedLineStart(t *testing.T) {
	good := `{"seq":1,"ts_unix_ns":1,"type":"a"}` + "\n"
	path := filepath.Join(t.TempDir(), "j.jsonl")
	raw := good + "garbage\n" + `{"seq":3,"ts_unix_ns":3,"type":"c"}` + "\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if want := fmt.Sprintf("malformed event at byte %d:", len(good)); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	if len(events) != 1 || events[0].Seq != 1 {
		t.Errorf("events before the malformed line = %+v, want seq 1 only", events)
	}
}

// FuzzReadJournalFile feeds the journal reader arbitrary bytes (it must not
// panic), then n valid event lines followed by a torn tail with no newline:
// the reader must return exactly the valid lines' events.
func FuzzReadJournalFile(f *testing.F) {
	f.Add([]byte(`{"seq":1,"ts_unix_ns":5,"type":"a","data":{"x":1}}`+"\n"), uint8(2), "verdict_served", []byte(`{"seq":9,"ty`))
	f.Add([]byte("not json\n\n{}\n"), uint8(0), "", []byte{})
	f.Add([]byte(`{"seq":"x"}`), uint8(3), "a\xffb", []byte("\x00\x01"))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, typ string, tail []byte) {
		dir := t.TempDir()
		anyPath := filepath.Join(dir, "any.jsonl")
		if err := os.WriteFile(anyPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadJournalFile(anyPath)

		var buf bytes.Buffer
		var want []Event
		for i := 0; i < int(n%4); i++ {
			line, err := json.Marshal(Event{Seq: int64(i + 1), TS: int64(i), Type: typ})
			if err != nil {
				t.Fatal(err)
			}
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			want = append(want, ev)
			buf.Write(line)
			buf.WriteByte('\n')
		}
		buf.Write(bytes.ReplaceAll(tail, []byte("\n"), nil))
		tornPath := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(tornPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournalFile(tornPath)
		if err != nil {
			t.Fatalf("valid lines with a torn tail: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %+v, want %+v", got, want)
		}
	})
}
