package blob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPeer is one in-process replica: a memory store behind the real
// artifact handler, with a request counter.
type testPeer struct {
	store *Mem
	srv   *httptest.Server
	gets  atomic.Int64
	puts  atomic.Int64
	heads atomic.Int64
}

func newTestPeer(t *testing.T) *testPeer {
	t.Helper()
	p := &testPeer{store: NewMem(0, 0)}
	inner := ArtifactHandler(p.store, 0)
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			p.gets.Add(1)
		case http.MethodPut:
			p.puts.Add(1)
		case http.MethodHead:
			p.heads.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func fastRemote(peers ...string) *Remote {
	return NewRemote(RemoteOptions{
		Peers:          peers,
		AttemptTimeout: 2 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
	})
}

func TestRemoteRoundtrip(t *testing.T) {
	peer := newTestPeer(t)
	var logMu sync.Mutex
	var lines []string
	r := NewRemote(RemoteOptions{
		Peers: []string{peer.srv.URL},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	payload := []byte("a table module crossing the wire")
	key := DigestParts("remote-roundtrip")
	if err := r.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, key)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	info, err := r.Stat(ctx, key)
	if err != nil || info.Content != Sum(payload) || info.Size != int64(len(payload)) {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "warm fetch") && strings.Contains(l, short(key)) {
			found = true
		}
	}
	if !found {
		t.Errorf("no warm-fetch log line in %q", lines)
	}
}

func TestRemoteMissIsHealthy(t *testing.T) {
	peer := newTestPeer(t)
	r := fastRemote(peer.srv.URL)
	if _, err := r.Get(ctx, DigestParts("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get absent = %v, want ErrNotFound", err)
	}
	if states := r.BreakerStates(); states[peer.srv.URL] != "closed" {
		t.Errorf("a coherent miss moved the breaker: %v", states)
	}
}

// TestConditionalGet: If-None-Match with the current digest ETag
// answers 304 with no body — the neighbor-refresh fast path.
func TestConditionalGet(t *testing.T) {
	peer := newTestPeer(t)
	payload := []byte("already have these bytes")
	key := DigestParts("conditional")
	if err := peer.store.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, peer.srv.URL+ArtifactPathPrefix+key, nil)
	req.Header.Set("If-None-Match", ETagFor(Sum(payload)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status = %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != ETagFor(Sum(payload)) {
		t.Errorf("304 ETag = %q", got)
	}

	// A stale ETag serves the payload.
	req.Header.Set("If-None-Match", ETagFor(Sum([]byte("older version"))))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional GET status = %d, want 200", resp2.StatusCode)
	}
}

// TestPutDedupe: publishing content a peer already holds costs a HEAD,
// not a body upload.
func TestPutDedupe(t *testing.T) {
	peer := newTestPeer(t)
	r := fastRemote(peer.srv.URL)
	payload := []byte("published twice, shipped once")
	key := DigestParts("dedupe")
	if err := r.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	if got := peer.puts.Load(); got != 1 {
		t.Errorf("PUT count = %d, want 1 (second publish should dedupe via HEAD)", got)
	}
	if peer.heads.Load() < 1 {
		t.Error("no HEAD issued for dedupe")
	}
}

// TestPutRejectsWireCorruption: a body that does not hash to its digest
// header is refused by the server, never stored.
func TestPutRejectsWireCorruption(t *testing.T) {
	peer := newTestPeer(t)
	key := DigestParts("wire-rot")
	req, _ := http.NewRequest(http.MethodPut, peer.srv.URL+ArtifactPathPrefix+key,
		bytes.NewReader([]byte("corrupted in transit")))
	req.Header.Set(ContentDigestHeader, Sum([]byte("what was actually sent")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT status = %d, want 400", resp.StatusCode)
	}
	if _, err := peer.store.Get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Error("corrupt body was stored")
	}
}

// TestRemoteSingleflight: concurrent Gets for one key collapse into one
// HTTP fetch — a cold replica's thundering herd costs one round trip.
func TestRemoteSingleflight(t *testing.T) {
	payload := []byte("fetched once")
	key := DigestParts("singleflight")
	var gets atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		<-release
		w.Header().Set("ETag", ETagFor(Sum(payload)))
		w.Write(payload)
	}))
	defer srv.Close()

	r := fastRemote(srv.URL)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := r.Get(ctx, key)
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("wrong payload")
			}
			errs[i] = err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the callers pile up
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if got := gets.Load(); got != 1 {
		t.Errorf("server saw %d GETs for one key, want 1", got)
	}
}

// TestRemoteWaiterOutlivesLeaderCancel: when the caller leading a
// collapsed fetch gives up, a caller waiting on the same key with a live
// context must still get the payload, not the leader's cancellation.
func TestRemoteWaiterOutlivesLeaderCancel(t *testing.T) {
	payload := []byte("wanted by someone still waiting")
	key := DigestParts("leader-cancel")
	var gets atomic.Int64
	first := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) == 1 {
			close(first)
			<-r.Context().Done() // slow peer: the first fetch never answers
			return
		}
		w.Header().Set("ETag", ETagFor(Sum(payload)))
		w.Write(payload)
	}))
	defer srv.Close()

	r := fastRemote(srv.URL)
	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Get(lctx, key)
		leaderErr <- err
	}()
	<-first
	type result struct {
		payload []byte
		err     error
	}
	waiter := make(chan result, 1)
	go func() {
		got, err := r.Get(context.Background(), key)
		waiter <- result{got, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter join the leader's fetch
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader = %v, want context.Canceled", err)
	}
	res := <-waiter
	if res.err != nil || !bytes.Equal(res.payload, payload) {
		t.Fatalf("waiter = %q, %v; want the payload", res.payload, res.err)
	}
	if n := gets.Load(); n != 2 {
		t.Errorf("peer saw %d GETs, want 2 (the canceled fetch and the waiter's own)", n)
	}
}

// TestHTTPBitFlipRefused is the over-the-wire corruption drill: a peer
// serving bytes that no longer match their digest ETag is refused — a
// VerifyError, not a payload, and no retry (the peer would serve the
// same rot again).
func TestHTTPBitFlipRefused(t *testing.T) {
	payload := []byte("pristine on publish, rotten on serve")
	key := DigestParts("http-rot")
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		rot := bytes.Clone(payload)
		rot[4] ^= 0x20
		w.Header().Set("ETag", ETagFor(Sum(payload))) // stale digest: the pristine one
		w.Write(rot)
	}))
	defer srv.Close()

	r := fastRemote(srv.URL)
	var verr *VerifyError
	if _, err := r.Get(ctx, key); !errors.As(err, &verr) {
		t.Fatalf("Get over rotten wire = %v, want VerifyError", err)
	}
	if verr.Backend != "http" {
		t.Errorf("backend = %q", verr.Backend)
	}
	if gets.Load() != 1 {
		t.Errorf("verify failure was retried (%d GETs)", gets.Load())
	}
}

// TestNoDigestETagRefused: a peer that serves artifacts without a
// digest ETag offers nothing to verify against; the bytes are refused.
func TestNoDigestETagRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("unverifiable"))
	}))
	defer srv.Close()
	r := fastRemote(srv.URL)
	if _, err := r.Get(ctx, DigestParts("unverifiable")); err == nil ||
		!strings.Contains(err.Error(), "no digest ETag") {
		t.Fatalf("Get without ETag = %v, want refusal", err)
	}
}

// TestRetryThenSuccess: one 503 is absorbed by the retry schedule.
func TestRetryThenSuccess(t *testing.T) {
	payload := []byte("second try lucky")
	key := DigestParts("retry")
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("ETag", ETagFor(Sum(payload)))
		w.Write(payload)
	}))
	defer srv.Close()

	r := fastRemote(srv.URL)
	got, err := r.Get(ctx, key)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2", calls.Load())
	}
}

// TestDeadPeerFallsThrough: a blackholed first peer must not stop the
// walk — the second peer serves, and after enough failures the first
// peer's breaker opens so later reads skip it without a dial.
func TestDeadPeerFallsThrough(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	live := newTestPeer(t)

	payload := []byte("served by the healthy peer")
	key := DigestParts("failover")
	if err := live.store.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}

	r := NewRemote(RemoteOptions{
		Peers:            []string{dead.URL, live.srv.URL},
		AttemptTimeout:   time.Second,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	for i := 0; i < 3; i++ {
		got, err := r.Get(ctx, key)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round %d: Get = %q, %v", i, got, err)
		}
	}
	states := r.BreakerStates()
	if states[dead.URL] != "open" {
		t.Errorf("dead peer breaker = %q, want open (states %v)", states[dead.URL], states)
	}
	if states[live.srv.URL] != "closed" {
		t.Errorf("live peer breaker = %q, want closed", states[live.srv.URL])
	}
}

// TestHandlerRejectsBadKeys: the artifact API validates keys before
// touching a backend — path traversal shaped strings never reach disk.
func TestHandlerRejectsBadKeys(t *testing.T) {
	peer := newTestPeer(t)
	for _, bad := range []string{"short", "../../etc/passwd", strings.Repeat("g", 64)} {
		resp, err := http.Get(peer.srv.URL + ArtifactPathPrefix + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("key %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHandlerServesQuarantineAsMiss: a corrupt local entry answers 404
// with the X-Blob-Verify marker, so a fetching peer books a miss, not
// an error, and the corpse stays quarantined server-side.
func TestHandlerServesQuarantineAsMiss(t *testing.T) {
	mem := NewMem(0, 0)
	srv := httptest.NewServer(ArtifactHandler(mem, 0))
	defer srv.Close()

	key := DigestParts("quarantine-over-http")
	if err := mem.Put(ctx, key, []byte("will rot")); err != nil {
		t.Fatal(err)
	}
	mem.corruptForTest(key)

	resp, err := http.Get(srv.URL + ArtifactPathPrefix + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Blob-Verify") != "failed" {
		t.Error("verify-failure marker header missing")
	}

	// And through the client: a remote verify-404 is a plain miss.
	r := fastRemote(srv.URL)
	if _, err := r.Get(ctx, DigestParts("absent-entirely")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remote miss = %v, want ErrNotFound", err)
	}
}

// TestRemoteRefusesOversizedAnswer: a peer answer that declares more
// than the artifact cap is refused before its body is read, as
// ErrTooLarge, and is not retried.
func TestRemoteRefusesOversizedAnswer(t *testing.T) {
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.Header().Set("Content-Length", strconv.Itoa(maxArtifactBytes+1))
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("the first bytes of far too many"))
	}))
	defer srv.Close()
	_, err := fastRemote(srv.URL).Get(ctx, DigestParts("oversized"))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Get = %v, want ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), srv.URL) {
		t.Errorf("error %q does not name the peer", err)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("peer asked %d times, want 1", n)
	}
}
