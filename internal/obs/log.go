package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
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
	}
	return "unknown"
}

// ParseLevel maps a level name to its Level; unknown names default to
// info with ok=false.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, true
	case "info", "":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return LevelInfo, false
}

// Format selects the line encoding.
type Format int8

const (
	// FormatText renders "2026-01-02T15:04:05Z INFO msg key=value ...".
	FormatText Format = iota
	// FormatJSON renders one JSON object per line:
	// {"ts":"...","level":"info","msg":"...","key":value,...}.
	FormatJSON
)

// ParseFormat maps a format name to its Format; unknown names default to
// text with ok=false.
func ParseFormat(s string) (Format, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "":
		return FormatText, true
	case "json":
		return FormatJSON, true
	}
	return FormatText, false
}

// Logger is a minimal leveled structured logger: message plus flat
// key-value pairs, one line per event, text or JSON. A nil *Logger
// discards everything, so plumbed components never need a nil check.
// The writer is serialized by an internal mutex.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	level  Level
	format Format
	now    func() time.Time // test seam; defaults to time.Now
}

// NewLogger writes events at or above level to w in the given format.
func NewLogger(w io.Writer, level Level, format Format) *Logger {
	return &Logger{w: w, level: level, format: format, now: time.Now}
}

// Discard returns a non-nil logger that drops everything — the explicit
// silencer for benchmarks and tests. (It must be non-nil so option
// defaulting can tell "silence this" from "not set".)
func Discard() *Logger { return NewLogger(io.Discard, LevelError+1, FormatText) }

// Enabled reports whether events at l would be written.
func (lg *Logger) Enabled(l Level) bool { return lg != nil && l >= lg.level }

// Debug logs at debug level. kv is alternating key, value pairs.
func (lg *Logger) Debug(msg string, kv ...any) { lg.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (lg *Logger) Info(msg string, kv ...any) { lg.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (lg *Logger) Warn(msg string, kv ...any) { lg.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (lg *Logger) Error(msg string, kv ...any) { lg.log(LevelError, msg, kv) }

// Raw writes an already-encoded JSON line (the slow-query log emits its
// own object shape) subject to no level filter. The line is written
// atomically with a trailing newline.
func (lg *Logger) Raw(line []byte) {
	if lg == nil {
		return
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.w.Write(append(line, '\n'))
}

func (lg *Logger) log(l Level, msg string, kv []any) {
	if lg == nil || l < lg.level {
		return
	}
	ts := lg.now().UTC().Format(time.RFC3339Nano)
	var line []byte
	if lg.format == FormatJSON {
		obj := make(map[string]any, len(kv)/2+3)
		obj["ts"] = ts
		obj["level"] = l.String()
		obj["msg"] = msg
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				k = fmt.Sprint(kv[i])
			}
			obj[k] = jsonSafe(kv[i+1])
		}
		line, _ = json.Marshal(obj)
	} else {
		var b strings.Builder
		b.WriteString(ts)
		b.WriteByte(' ')
		b.WriteString(strings.ToUpper(l.String()))
		b.WriteByte(' ')
		b.WriteString(msg)
		for i := 0; i+1 < len(kv); i += 2 {
			fmt.Fprintf(&b, " %v=%v", kv[i], kv[i+1])
		}
		line = []byte(b.String())
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.w.Write(append(line, '\n'))
}

// jsonSafe converts values json.Marshal would reject (errors, arbitrary
// types) to strings.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case nil, bool, string, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, float32, float64, json.RawMessage:
		return x
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	default:
		// Structs/maps/slices of basic types marshal fine; fall back to
		// fmt for anything that doesn't.
		if _, err := json.Marshal(x); err == nil {
			return x
		}
		return fmt.Sprint(x)
	}
}
