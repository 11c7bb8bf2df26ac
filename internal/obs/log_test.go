package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerInjectsTraceID(t *testing.T) {
	var buf strings.Builder
	logger := NewLogger(&buf, slog.LevelInfo)
	tr := NewTracer(2)
	ctx, sp := tr.StartRequest(context.Background(), new(RequestContext), "req", "trace-abc")
	logger.InfoContext(ctx, "request", slog.String("method", "GET"))
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if rec["trace_id"] != "trace-abc" {
		t.Errorf("trace_id = %v, want trace-abc", rec["trace_id"])
	}
	if rec["span_id"] != float64(sp.SpanID()) {
		t.Errorf("span_id = %v, want %d", rec["span_id"], sp.SpanID())
	}
	if rec["method"] != "GET" || rec["msg"] != "request" {
		t.Errorf("record = %v", rec)
	}
}

func TestLoggerWithoutTraceOmitsIDs(t *testing.T) {
	var buf strings.Builder
	NewLogger(&buf, slog.LevelInfo).Info("plain")
	if strings.Contains(buf.String(), "trace_id") {
		t.Errorf("untraced record must not carry trace_id: %s", buf.String())
	}
}

func TestDiscardLogger(t *testing.T) {
	// Must not panic, must be silent.
	DiscardLogger().Info("dropped", slog.Int("n", 1))
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
