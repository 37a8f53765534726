package fleet

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// BackoffDelay computes the sleep before retry number try (0-based):
// an exponential ceiling with full jitter, never below the server's
// Retry-After when one was sent. Both fleet clients — compile routing
// and artifact fetching — retry in this rhythm.
func BackoffDelay(try int, base, max, retryAfter time.Duration) time.Duration {
	ceil := base << uint(try)
	if ceil > max || ceil <= 0 {
		ceil = max
	}
	if ceil <= 0 {
		ceil = base
	}
	d := time.Duration(0)
	if ceil > 0 {
		d = time.Duration(rand.Int63n(int64(ceil) + 1))
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Sleep waits d unless ctx ends first. It returns ctx.Err() when the
// context has ended, at once if it already had, and nil after the full
// wait. Every retry in the serving stack waits here, so no backoff
// outlives the request it serves.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseRetryAfter reads a Retry-After header in delay-seconds form (the
// form cogd sends). HTTP-date form is rare and a miss just means the
// jittered backoff governs alone.
func ParseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
