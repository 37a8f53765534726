package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cogg/internal/fleet"
)

func testReplicas(n int) []*replica {
	reps := make([]*replica, n)
	for i := range reps {
		reps[i] = &replica{
			idx:  i,
			url:  fmt.Sprintf("http://10.0.0.%d:8470", i+1),
			name: fmt.Sprintf("10.0.0.%d:8470", i+1),
			br:   fleet.NewBreaker(5, time.Second),
		}
	}
	return reps
}

// TestRingDeterminism: routing must be a pure function of (targets,
// key) — every client that knows the same target list computes the
// same owner and the same failover order, so cache affinity survives
// front restarts and holds across independent fronts.
func TestRingDeterminism(t *testing.T) {
	reps := testReplicas(3)
	r1 := newRing(reps)
	r2 := newRing(reps)
	for _, key := range []string{"", "amdahl470", "risc32", "some/other/key"} {
		o1, o2 := r1.order(key), r2.order(key)
		if len(o1) != 3 || len(o2) != 3 {
			t.Fatalf("key %q: order lengths %d/%d, want 3", key, len(o1), len(o2))
		}
		seen := map[int]bool{}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Errorf("key %q: rings disagree at position %d", key, i)
			}
			seen[o1[i].idx] = true
		}
		if len(seen) != 3 {
			t.Errorf("key %q: order repeats a replica: %v", key, seen)
		}
	}
}

// TestRingSpreadsKeys: with vnodes on, no replica is starved — every
// replica owns a reasonable share of a large key space.
func TestRingSpreadsKeys(t *testing.T) {
	reps := testReplicas(3)
	r := newRing(reps)
	owners := make([]int, 3)
	const keys = 3000
	for i := 0; i < keys; i++ {
		owners[r.order(fmt.Sprintf("spec-%d.cogg", i))[0].idx]++
	}
	for i, n := range owners {
		// A very loose bound: uniform would be 1000 each; vnode
		// placement noise should not push any replica below 1/6 share.
		if n < keys/6 {
			t.Errorf("replica %d owns only %d/%d keys", i, n, keys)
		}
	}
}

// TestBreakerLifecycle walks the full closed → open → half-open →
// open → half-open → closed cycle on a fake clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := fleet.NewBreaker(3, time.Second)
	b.Now = func() time.Time { return now }
	var transitions []fleet.BreakerState
	b.OnTransition = func(to fleet.BreakerState) { transitions = append(transitions, to) }

	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	b.Failure()
	b.Failure()
	if b.State() != fleet.BreakerClosed {
		t.Fatalf("2/3 failures already opened the breaker")
	}
	b.Failure()
	if b.State() != fleet.BreakerOpen {
		t.Fatal("threshold failures did not open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}

	now = now.Add(time.Second) // cooldown elapses
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.State() != fleet.BreakerHalfOpen {
		t.Fatalf("state after probe admission: %v", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second request while probing")
	}
	b.Failure() // the probe failed: slam open again
	if b.State() != fleet.BreakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second half-open probe refused")
	}
	b.Success()
	if b.State() != fleet.BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused a request")
	}

	want := []fleet.BreakerState{fleet.BreakerOpen, fleet.BreakerHalfOpen, fleet.BreakerOpen, fleet.BreakerHalfOpen, fleet.BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
}

// TestBreakerCancelProbeReleasesSlot: a half-open probe whose request
// is canceled (hedge winner, caller context) must release the probe
// slot — without that the breaker would be stuck half-open, rejecting
// everything forever.
func TestBreakerCancelProbeReleasesSlot(t *testing.T) {
	now := time.Unix(1000, 0)
	b := fleet.NewBreaker(1, time.Second)
	b.Now = func() time.Time { return now }

	b.Failure() // trip open
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second request while probing")
	}
	b.CancelProbe() // the probe request was canceled: no verdict
	if b.State() != fleet.BreakerHalfOpen {
		t.Fatalf("cancelProbe changed state to %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("breaker still rejecting after the canceled probe released the slot")
	}
	b.Success()
	if b.State() != fleet.BreakerClosed {
		t.Fatal("successful re-probe did not close the breaker")
	}

	// On a closed breaker cancelProbe is a no-op, not a reset.
	b.CancelProbe()
	if !b.Allow() || b.State() != fleet.BreakerClosed {
		t.Fatal("cancelProbe disturbed a closed breaker")
	}
}

// TestReplicaTokensOrderIndependent: the sticky-session token is a pure
// function of the replica URL, so two clients over the same fleet in
// different -targets order mint and resolve the same tokens.
func TestReplicaTokensOrderIndependent(t *testing.T) {
	urls := []string{"http://10.0.0.1:8470", "http://10.0.0.2:8470", "http://10.0.0.3:8470"}
	rev := []string{urls[2], urls[1], urls[0]}
	a, err := New(Options{Targets: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Options{Targets: rev, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for _, rep := range a.reps {
		if len(rep.token) < 8 {
			t.Errorf("replica %s token %q is too short", rep.url, rep.token)
		}
		other, ok := b.replicaByToken(rep.token)
		if !ok {
			t.Fatalf("token %q for %s does not resolve on the reversed client", rep.token, rep.url)
		}
		if other.url != rep.url {
			t.Errorf("token %q resolves to %s on one client and %s on the other", rep.token, rep.url, other.url)
		}
	}
	if _, ok := a.replicaByToken("ffffffff"); ok {
		t.Error("an unknown token resolved to a replica")
	}
}

// TestBreakerSuccessResetsCount: failures must be consecutive to trip;
// any success restarts the count.
func TestBreakerSuccessResetsCount(t *testing.T) {
	b := fleet.NewBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != fleet.BreakerClosed {
		t.Fatal("interleaved successes still tripped the breaker")
	}
	b.Failure()
	if b.State() != fleet.BreakerOpen {
		t.Fatal("three consecutive failures did not trip the breaker")
	}
}

// TestParseRetryAfter: a replica's Retry-After header, in delay-seconds
// form only, becomes the floor of the client's next retry wait; every
// other form is ignored.
func TestParseRetryAfter(t *testing.T) {
	var retryAfter string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c, err := New(Options{Targets: []string{srv.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
		retryAfter = tc.v
		a := c.send(context.Background(), c.reps[0], "/v1/compile", []byte("{}"))
		if a.err != nil || !a.retryable {
			t.Fatalf("Retry-After %q: err=%v retryable=%v, want a retryable 429", tc.v, a.err, a.retryable)
		}
		if a.retryAfter != tc.want {
			t.Errorf("Retry-After %q: retry floor = %v, want %v", tc.v, a.retryAfter, tc.want)
		}
	}
}

// TestHedgeDelayModes: fixed, disabled, and the adaptive p99 with its
// cold default and warm-cache floor.
func TestHedgeDelayModes(t *testing.T) {
	fixed := &Client{opts: Options{HedgeAfter: 7 * time.Millisecond}, lat: newLatWindow(256)}
	if d := fixed.hedgeDelay(); d != 7*time.Millisecond {
		t.Errorf("fixed hedge delay = %v, want 7ms", d)
	}
	off := &Client{opts: Options{HedgeAfter: -1}, lat: newLatWindow(256)}
	if d := off.hedgeDelay(); d >= 0 {
		t.Errorf("disabled hedging returned a delay: %v", d)
	}

	adaptive := &Client{opts: Options{HedgeAfter: 0}, lat: newLatWindow(256)}
	if d := adaptive.hedgeDelay(); d != 25*time.Millisecond {
		t.Errorf("cold adaptive hedge delay = %v, want the 25ms default", d)
	}
	// A microsecond-fast warm cache must not make every request hedge:
	// the floor holds the threshold up.
	for i := 0; i < 256; i++ {
		adaptive.lat.observe(time.Microsecond)
	}
	if d := adaptive.hedgeDelay(); d != 2*time.Millisecond {
		t.Errorf("warm-cache hedge delay = %v, want the 2ms floor", d)
	}
	// Slow observed traffic raises the threshold to its p99.
	for i := 0; i < 256; i++ {
		adaptive.lat.observe(50 * time.Millisecond)
	}
	if d := adaptive.hedgeDelay(); d != 50*time.Millisecond {
		t.Errorf("adaptive hedge delay = %v, want the observed 50ms p99", d)
	}
}

// TestNewDedupesTargets: duplicate and slash-suffixed target URLs
// collapse to one replica, so a sloppy -targets flag cannot double a
// replica's ring share.
func TestNewDedupesTargets(t *testing.T) {
	c, err := New(Options{
		Targets:       []string{"http://10.0.0.1:8470", "http://10.0.0.1:8470/", " http://10.0.0.1:8470 "},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Replicas(); len(got) != 1 {
		t.Fatalf("replicas = %v, want one", got)
	}
}
