// Package applog is the daemons' logging seam behind the -log-format
// flag. Text mode (the default) keeps the traditional log.Printf lines
// byte-compatible with what cogd and cogdfront have always emitted, so
// existing grep-based tooling keeps working; json mode switches every
// line to log/slog structured output — one JSON object per line — and
// hands the embedding server a *slog.Logger so request-scoped reports
// (slow-request trees) carry the trace ID and the span tree as
// attributes instead of being buried in formatted prose.
package applog

import (
	"fmt"
	"log"
	"log/slog"
	"os"
)

// Logger routes daemon operational lines per the chosen format.
type Logger struct {
	json *slog.Logger
}

// New builds a logger for -log-format value format ("", "text", or
// "json"); component tags every structured line ("cogd", "cogdfront").
func New(format, component string) (*Logger, error) {
	switch format {
	case "", "text":
		return &Logger{}, nil
	case "json":
		return &Logger{json: slog.New(slog.NewJSONHandler(os.Stderr, nil)).With("component", component)}, nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// Printf emits one operational line. Text mode is exactly log.Printf —
// call sites keep their historical "cogd: ..." phrasing; json mode
// wraps the same formatted message in a structured record.
func (l *Logger) Printf(format string, args ...any) {
	if l == nil || l.json == nil {
		log.Printf(format, args...)
		return
	}
	l.json.Info(fmt.Sprintf(format, args...))
}

// Fatalf logs and exits 1, both modes.
func (l *Logger) Fatalf(format string, args ...any) {
	if l == nil || l.json == nil {
		log.Fatalf(format, args...)
	}
	l.json.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// Slog exposes the structured logger, nil in text mode — servers use it
// to decide between structured and legacy slow-request reporting.
func (l *Logger) Slog() *slog.Logger {
	if l == nil {
		return nil
	}
	return l.json
}
