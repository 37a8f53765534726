package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The breaker state machine is exercised end to end by the cluster
// package's suite (which uses this implementation directly); these tests pin
// the fleet-level contract points.

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0)
	for i := 0; i < 4; i++ {
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped before the default threshold of 5")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at the default threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
}

func TestBackoffDelay(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	for try := 0; try < 10; try++ {
		d := BackoffDelay(try, base, max, 0)
		if d < 0 || d > max {
			t.Fatalf("try %d: delay %v outside [0, %v]", try, d, max)
		}
	}
	// Retry-After is a floor, not a suggestion.
	if d := BackoffDelay(0, base, max, 300*time.Millisecond); d != 300*time.Millisecond {
		t.Errorf("Retry-After floor ignored: %v", d)
	}
	// Degenerate configuration still terminates with a sane value.
	if d := BackoffDelay(62, base, 0, 0); d < 0 {
		t.Errorf("zero max backoff went negative: %v", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		v    string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"Fri, 07 Aug 2026 12:00:00 GMT", 0}, // HTTP-date form: ignored
		{"garbage", 0},
	} {
		h := http.Header{}
		if tc.v != "" {
			h.Set("Retry-After", tc.v)
		}
		if got := ParseRetryAfter(h); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("full wait = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []time.Duration{0, time.Hour} {
		if err := Sleep(ctx, d); !errors.Is(err, context.Canceled) {
			t.Errorf("Sleep(canceled, %v) = %v, want context.Canceled", d, err)
		}
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Sleep past the deadline = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Sleep returned %v after a 20ms deadline", d)
	}
}

// joined blocks until n waiters have joined the in-flight call for key.
func joined[V any](t *testing.T, g *Group[V], key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		g.mu.Lock()
		c := g.calls[key]
		ok := c != nil && c.dups >= n
		g.mu.Unlock()
		if ok {
			return
		}
	}
	t.Fatalf("%d waiters never joined the call for %q", n, key)
}

// TestGroupCollapses: N concurrent callers for one key run fn once and
// all get its result; all but the leader report it as shared.
func TestGroupCollapses(t *testing.T) {
	var g Group[int]
	var runs atomic.Int32
	release := make(chan struct{})
	fn := func(context.Context) (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}
	const n = 8
	var wg sync.WaitGroup
	var shared atomic.Int32
	do := func() {
		defer wg.Done()
		v, err, sh := g.Do(context.Background(), "k", fn)
		if v != 42 || err != nil {
			t.Errorf("Do = %d, %v", v, err)
		}
		if sh {
			shared.Add(1)
		}
	}
	wg.Add(1)
	go do()
	joined(t, &g, "k", 0)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go do()
	}
	joined(t, &g, "k", n-1)
	close(release)
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Errorf("fn ran %d times for %d concurrent callers, want 1", r, n)
	}
	if s := shared.Load(); s != n-1 {
		t.Errorf("%d callers reported a shared result, want %d", s, n-1)
	}
	if _, err, sh := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil }); err != nil || sh {
		t.Errorf("call after completion = %v, shared %v; want a fresh run", err, sh)
	}
}

// TestGroupWaiterCancel: a waiter whose own context ends returns at once
// with its context's error while the leader keeps running.
func TestGroupWaiterCancel(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			<-release
			return 1, nil
		})
		leaderDone <- err
	}()
	joined(t, &g, "k", 0)

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(context.Context) (int, error) {
			t.Error("waiter ran fn while the leader was in flight")
			return 0, nil
		})
		waiterDone <- err
	}()
	joined(t, &g, "k", 1)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter stayed blocked on the leader")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader = %v, want nil", err)
	}
}

// TestGroupLeaderCancel: a waiter with a live context never inherits the
// error of a leader whose context ended; it runs fn itself.
func TestGroupLeaderCancel(t *testing.T) {
	var g Group[string]
	lctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(lctx, "k", func(ctx context.Context) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		})
		leaderDone <- err
	}()
	joined(t, &g, "k", 0)

	waiterDone := make(chan struct{})
	var v string
	var err error
	go func() {
		defer close(waiterDone)
		v, err, _ = g.Do(context.Background(), "k", func(context.Context) (string, error) {
			return "payload", nil
		})
	}()
	joined(t, &g, "k", 1)
	cancel()
	if lerr := <-leaderDone; !errors.Is(lerr, context.Canceled) {
		t.Errorf("leader = %v, want context.Canceled", lerr)
	}
	<-waiterDone
	if v != "payload" || err != nil {
		t.Errorf("waiter = %q, %v; want the payload from its own run", v, err)
	}
}

// TestGroupLeaderPanic: a panicking leader releases its waiters with an
// error and leaves the key free for the next call.
func TestGroupLeaderPanic(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "k", func(context.Context) (int, error) {
			<-release
			panic("boom")
		})
	}()
	joined(t, &g, "k", 0)
	waiterDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, nil })
		waiterDone <- err
	}()
	joined(t, &g, "k", 1)
	close(release)
	if err := <-waiterDone; !errors.Is(err, errLeaderPanicked) {
		t.Errorf("waiter of a panicked leader = %v, want errLeaderPanicked", err)
	}
	if v, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Errorf("call after the panic = %d, %v", v, err)
	}
}
