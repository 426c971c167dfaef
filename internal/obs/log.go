package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to its
// Level, defaulting to info for anything unrecognized.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Logger writes leveled, structured key=value lines:
//
//	ts=2026-08-05T12:00:00.000Z level=info msg="slave registered" slave=host1
//
// It replaces the ad-hoc fmt.Fprintf/log.Printf calls in the daemons so
// operational output is grep- and machine-friendly. A nil *Logger discards
// everything, which is how library code carries an optional logger without
// branching.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	clock func() time.Time
}

// NewLogger returns a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, clock: time.Now}
}

// Debug logs a debug-level line; kv is alternating keys and values.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs an info-level line.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs a warn-level line.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs an error-level line.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if l == nil || level < l.level {
		return
	}
	var b strings.Builder
	l.mu.Lock()
	defer l.mu.Unlock()
	b.WriteString("ts=")
	b.WriteString(l.clock().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	// kv alternates keys and values; a dangling key gets an empty value
	// rather than being dropped.
	for i := 0; i < len(kv); i += 2 {
		val := ""
		if i+1 < len(kv) {
			val = formatValue(kv[i+1])
		}
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(quoteValue(val))
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(l.w, b.String())
}

// formatValue renders a logged value compactly.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		return x.Error()
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Duration:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

// quoteValue quotes a value only when it needs it (spaces, quotes, equals,
// or control characters), keeping the common case readable.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	for _, r := range s {
		if r == ' ' || r == '"' || r == '=' || r < ' ' {
			return strconv.Quote(s)
		}
	}
	return s
}
