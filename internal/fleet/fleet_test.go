package fleet

import (
	"net/http"
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
	h := http.Header{}
	if got := ParseRetryAfter(h); got != 0 {
		t.Errorf("absent header = %v", got)
	}
	h.Set("Retry-After", "3")
	if got := ParseRetryAfter(h); got != 3*time.Second {
		t.Errorf("delay-seconds = %v", got)
	}
	h.Set("Retry-After", "not-a-number")
	if got := ParseRetryAfter(h); got != 0 {
		t.Errorf("malformed header = %v", got)
	}
	h.Set("Retry-After", "-2")
	if got := ParseRetryAfter(h); got != 0 {
		t.Errorf("negative header = %v", got)
	}
}
