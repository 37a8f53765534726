package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTally(t *testing.T) {
	for _, tc := range []struct {
		name       string
		results    []result
		ok, failed int
	}{
		{"2xx passes", []result{{status: 200}, {status: 201}}, 2, 0},
		{"429 fails", []result{{status: 200}, {status: http.StatusTooManyRequests}}, 1, 1},
		{"5xx fails", []result{{status: 200}, {status: 500}, {status: 503}}, 1, 2},
		{"transport error fails", []result{{status: 200}, {err: errors.New("connection refused")}}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ok, failed := tally(tc.results); ok != tc.ok || failed != tc.failed {
				t.Errorf("tally = %d ok, %d failed; want %d, %d", ok, failed, tc.ok, tc.failed)
			}
		})
	}
}

// TestRunExitStatus drives run against a stub daemon that answers every
// fourth request with the case's refusal status and all others 200: one
// refused request must make the run exit 1, and only a clean run exits 0.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse int
		want   int
	}{
		{"all 2xx", 0, 0},
		{"one 429 in four", http.StatusTooManyRequests, 1},
		{"one 503 in four", http.StatusServiceUnavailable, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if tc.refuse != 0 && seen.Add(1)%4 == 0 {
					http.Error(w, "refused", tc.refuse)
					return
				}
				w.Write([]byte(`{"ok":true}`))
			}))
			defer ts.Close()
			var stdout, stderr strings.Builder
			got := run([]string{"-url", ts.URL, "-lang", "if", "-n", "40", "-c", "2"}, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "status 200") {
				t.Errorf("no per-status count printed:\n%s", stdout.String())
			}
		})
	}
}
