package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"cogg/internal/faultinject"
	"cogg/internal/fleet"
	"cogg/internal/server"
)

// The chaos suite runs the policy engine against real cogd replicas —
// in-process server instances behind httptest listeners — and injures
// them mid-flight: kills, injected admission faults, partial response
// writes. The invariant under every injury short of losing the whole
// fleet: zero failed requests, byte-identical output.

const goodIF = "assign fullword dsp.96 r.13 pos_constant v.7"

// fleet is n live cogd replicas behind real listeners.
type testFleet struct {
	servers []*server.Server
	https   []*httptest.Server
	urls    []string
}

func newFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		s, err := server.New(server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.https = append(f.https, ts)
		f.urls = append(f.urls, ts.URL)
	}
	t.Cleanup(func() {
		for _, ts := range f.https {
			ts.Close() // idempotent: already-killed replicas are fine
		}
		for _, s := range f.servers {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Drain(ctx)
			cancel()
			s.Close()
		}
	})
	return f
}

// kill takes replica i down hard: established connections reset,
// listener closed — the closest an in-process test gets to SIGKILL.
func (f *testFleet) kill(i int) {
	f.https[i].CloseClientConnections()
	f.https[i].Close()
}

// indexOf maps a replica name (host:port) back to its fleet index.
func (f *testFleet) indexOf(t *testing.T, name string) int {
	t.Helper()
	for i, u := range f.urls {
		if u == "http://"+name {
			return i
		}
	}
	t.Fatalf("no fleet replica named %q (urls %v)", name, f.urls)
	return -1
}

func compileBody(t *testing.T, name string) []byte {
	t.Helper()
	b, err := json.Marshal(server.CompileRequest{Name: name, Lang: "if", Source: goodIF})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFailoverOnKilledOwner: the routing owner of a key dies; a request
// for that key must succeed anyway, answered by a fallback replica
// along the ring.
func TestFailoverOnKilledOwner(t *testing.T) {
	f := newFleet(t, 3)
	cl, err := New(Options{
		Targets:        f.urls,
		MaxRetries:     2,
		AttemptTimeout: 5 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		HedgeAfter:     -1,
		ProbeInterval:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const key = "amdahl470"
	owner := cl.Owner(key)
	f.kill(f.indexOf(t, owner))

	res, err := cl.Do(context.Background(), "/v1/compile", key, compileBody(t, "failover.if"))
	if err != nil {
		t.Fatalf("request with a dead owner failed outright: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	if res.Replica == owner {
		t.Fatalf("answer claims to come from the killed owner %s", owner)
	}
	if res.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (owner try plus failover)", res.Attempts)
	}
	snap := cl.Snapshot()
	if snap.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", snap.Failovers)
	}
	// The dead owner's breaker learned from the transport error.
	st := snap.Replicas[f.indexOf(t, owner)]
	if st.Breaker == fleet.BreakerOpen.String() {
		return // already open — even better
	}
	// One request = one failure; the breaker needs threshold hits to
	// open, so closed is also correct here. Just assert the counter
	// machinery saw the replica at all.
	if snap.Attempts < 2 {
		t.Errorf("attempts counter = %d, want >= 2", snap.Attempts)
	}
}

// TestChaosKillReplicaMidRun is the headline invariant: concurrent
// deck-producing compiles against a 3-replica fleet, one replica
// SIGKILLed mid-run — zero failed requests, and every deck
// byte-identical to the one a direct, unharmed daemon produces.
func TestChaosKillReplicaMidRun(t *testing.T) {
	src, err := os.ReadFile("../server/testdata/appendix1.pas")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.CompileRequest{
		Name: "appendix1.pas", Lang: "pascal", Source: string(src), Deck: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The reference deck, from a standalone server the chaos never
	// touches.
	ref, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refCl, err := New(Options{Targets: []string{refTS.URL}, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer refCl.Close()
	refRes, err := refCl.Do(context.Background(), "/v1/compile", "ref", body)
	if err != nil || refRes.Status != 200 {
		t.Fatalf("reference compile: err=%v status=%d", err, refRes.Status)
	}
	var refResp server.CompileResponse
	if err := json.Unmarshal(refRes.Body, &refResp); err != nil {
		t.Fatal(err)
	}
	if refResp.Deck == "" {
		t.Fatal("reference compile produced no deck")
	}

	f := newFleet(t, 3)
	cl, err := New(Options{
		Targets:        f.urls,
		MaxRetries:     3,
		AttemptTimeout: 10 * time.Second,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		HedgeAfter:     -1, // hedging has its own test; keep this one about retry
		ProbeInterval:  20 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const (
		workers   = 4
		perWorker = 15
	)
	victim := f.indexOf(t, cl.Owner("appendix1.pas"))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		done     = make(chan struct{})
	)
	// Kill the owner of the spec key partway into the run.
	go func() {
		time.Sleep(30 * time.Millisecond)
		f.kill(victim)
		close(done)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := cl.Do(context.Background(), "/v1/compile", "appendix1.pas", body)
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, fmt.Sprintf("w%d/%d: %v", w, i, err))
				case res.Status != 200:
					failures = append(failures, fmt.Sprintf("w%d/%d: status %d: %s", w, i, res.Status, res.Body))
				default:
					var resp server.CompileResponse
					if jerr := json.Unmarshal(res.Body, &resp); jerr != nil {
						failures = append(failures, fmt.Sprintf("w%d/%d: bad body: %v", w, i, jerr))
					} else if resp.Deck != refResp.Deck {
						failures = append(failures, fmt.Sprintf("w%d/%d: deck differs from reference (replica %s)", w, i, res.Replica))
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	<-done
	if len(failures) > 0 {
		t.Fatalf("%d/%d requests failed under a mid-run replica kill; first: %s",
			len(failures), workers*perWorker, failures[0])
	}
	snap := cl.Snapshot()
	t.Logf("chaos run: %d attempts, %d retries, %d failovers, victim breaker %s",
		snap.Attempts, snap.Retries, snap.Failovers, snap.Replicas[victim].Breaker)
}

// TestHedgeRescuesSlowReplica: the owner browns out (an injected
// admission stall), the hedge fires a duplicate at the next replica,
// and the duplicate's answer wins while the stalled primary is
// canceled.
func TestHedgeRescuesSlowReplica(t *testing.T) {
	faultinject.Set(faultinject.Rule{
		Site: "server/admit", Key: "slow.if", Kind: faultinject.KindDelay,
		Delay: 400 * time.Millisecond, Count: 1,
	})
	defer faultinject.Reset()

	f := newFleet(t, 2)
	cl, err := New(Options{
		Targets:       f.urls,
		MaxRetries:    0,
		HedgeAfter:    15 * time.Millisecond,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Do(context.Background(), "/v1/compile", "slow.if", compileBody(t, "slow.if"))
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	if res.Hedges < 1 {
		t.Errorf("hedges = %d, want >= 1", res.Hedges)
	}
	snap := cl.Snapshot()
	if snap.Hedges < 1 || snap.HedgeWins < 1 {
		t.Errorf("snapshot hedges=%d wins=%d, want both >= 1 (the stalled primary cannot have answered first)",
			snap.Hedges, snap.HedgeWins)
	}
}

// TestPartialResponseRetried: a replica dies mid-write (injected
// truncation + connection abort). The client must classify the torn
// body as a transport failure and retry to a healthy replica, never
// surfacing the partial JSON.
func TestPartialResponseRetried(t *testing.T) {
	faultinject.Set(faultinject.Rule{
		Site: "server/response/write", Key: "torn.if", Kind: faultinject.KindError, Count: 1,
	})
	defer faultinject.Reset()

	f := newFleet(t, 2)
	cl, err := New(Options{
		Targets:       f.urls,
		MaxRetries:    2,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		HedgeAfter:    -1,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Do(context.Background(), "/v1/compile", "torn.if", compileBody(t, "torn.if"))
	if err != nil {
		t.Fatalf("request failed despite retry budget: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatalf("surfaced body does not parse (torn response leaked?): %v", err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (torn first write, clean retry)", res.Attempts)
	}
	if snap := cl.Snapshot(); snap.Retries != 1 {
		t.Errorf("retries = %d, want 1", snap.Retries)
	}
}

// TestDegradedLocalFallback: the whole fleet is unreachable; with a
// Local tier configured the request is served in-process and the
// response is flagged degraded, so callers can tell a fleet answer
// from a lifeboat answer.
func TestDegradedLocalFallback(t *testing.T) {
	var (
		localMu sync.Mutex
		local   *server.Server
	)
	t.Cleanup(func() {
		localMu.Lock()
		defer localMu.Unlock()
		if local != nil {
			local.Close()
		}
	})
	cl, err := New(Options{
		Targets:       []string{"http://127.0.0.1:9"}, // discard port: refused
		MaxRetries:    1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Local: func() (http.Handler, error) {
			s, err := server.New(server.Options{})
			if err != nil {
				return nil, err
			}
			localMu.Lock()
			local = s
			localMu.Unlock()
			return s.Handler(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Do(context.Background(), "/v1/compile", "amdahl470", compileBody(t, "lifeboat.if"))
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if !res.Degraded || res.Replica != "local" || res.ReplicaIdx != -1 {
		t.Fatalf("result not marked degraded: %+v", res)
	}
	if res.Status != 200 {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	var resp struct {
		Degraded bool `json:"degraded"`
		Listing  string
	}
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Errorf("body carries no \"degraded\":true: %s", res.Body)
	}
	if snap := cl.Snapshot(); snap.Degraded != 1 {
		t.Errorf("snapshot degraded = %d, want 1", snap.Degraded)
	}

	// The local tier is built once and reused.
	res2, err := cl.Do(context.Background(), "/v1/compile", "amdahl470", compileBody(t, "lifeboat2.if"))
	if err != nil || !res2.Degraded {
		t.Fatalf("second degraded request: err=%v res=%+v", err, res2)
	}
	if snap := cl.Snapshot(); snap.Degraded != 2 {
		t.Errorf("snapshot degraded = %d, want 2", snap.Degraded)
	}
}
