package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"cogg/internal/blob"
	"cogg/internal/ir"
	"cogg/internal/obs"
	"cogg/internal/server"
)

func newFrontOver(t *testing.T, f *testFleet, opts Options) *httptest.Server {
	t.Helper()
	opts.Targets = f.urls
	cl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	fts := httptest.NewServer(NewFront(cl).Handler())
	t.Cleanup(fts.Close)
	return fts
}

func postJSON(t *testing.T, url string, req any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// TestFrontProxiesCompile: a compile through the front behaves exactly
// like a direct one, plus the routing headers operators debug with.
func TestFrontProxiesCompile(t *testing.T) {
	f := newFleet(t, 2)
	fts := newFrontOver(t, f, Options{ProbeInterval: -1, HedgeAfter: -1})

	var resp server.CompileResponse
	r := postJSON(t, fts.URL+"/v1/compile",
		server.CompileRequest{Name: "front.if", Lang: "if", Source: goodIF}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("compile via front: %d", r.StatusCode)
	}
	if resp.Instructions == 0 {
		t.Error("compile via front produced no instructions")
	}
	if rep := r.Header.Get("X-Cogd-Replica"); rep == "" {
		t.Error("front response carries no X-Cogd-Replica")
	}

	// Terminal errors pass through untouched: a blocked parse is a 422
	// wherever it runs, not something to retry around the fleet.
	r = postJSON(t, fts.URL+"/v1/compile",
		server.CompileRequest{Name: "bad.if", Lang: "if", Source: "no_such_operator fullword"}, nil)
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("blocked parse via front: %d, want 422", r.StatusCode)
	}
}

// TestFrontGrammarStickiness: a grammar session opened through the
// front gets a replica-branded ID, and advances route back to exactly
// the replica holding the cursor — across as many steps as the walk
// takes.
func TestFrontGrammarStickiness(t *testing.T) {
	f := newFleet(t, 2)
	fts := newFrontOver(t, f, Options{ProbeInterval: -1, HedgeAfter: -1})

	var open server.GrammarSessionResponse
	if r := postJSON(t, fts.URL+"/v1/grammar/session", server.GrammarSessionRequest{}, &open); r.StatusCode != http.StatusOK {
		t.Fatalf("open session via front: %d", r.StatusCode)
	}
	branded := regexp.MustCompile(`^[0-9a-f]{8,}:`)
	if !branded.MatchString(open.SessionID) {
		t.Fatalf("session_id %q carries no replica token", open.SessionID)
	}
	prefix := open.SessionID[:strings.IndexByte(open.SessionID, ':')+1]

	// Walk a few symbols; every answer must keep the brand so the next
	// advance still routes home.
	toks, err := ir.ParseTokens(goodIF)
	if err != nil {
		t.Fatal(err)
	}
	var next server.GrammarNextResponse
	for _, tok := range toks[:3] {
		sym := tok.Sym
		r := postJSON(t, fts.URL+"/v1/grammar/next",
			server.GrammarNextRequest{SessionID: open.SessionID, Symbol: sym}, &next)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("advance %q via front: %d", sym, r.StatusCode)
		}
		if !strings.HasPrefix(next.SessionID, prefix) {
			t.Fatalf("advance %q lost the replica prefix: %q", sym, next.SessionID)
		}
		open.SessionID = next.SessionID
	}

	// An unbranded ID is a client error, not a lottery over replicas.
	r := postJSON(t, fts.URL+"/v1/grammar/next",
		server.GrammarNextRequest{SessionID: "nob-rand", Symbol: "assign"}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unbranded session_id: %d, want 400", r.StatusCode)
	}

	// A token for a replica this front does not know is a 404, not a
	// misroute.
	r = postJSON(t, fts.URL+"/v1/grammar/next",
		server.GrammarNextRequest{SessionID: "deadbeef:ghost", Symbol: "assign"}, nil)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown replica token: %d, want 404", r.StatusCode)
	}
}

// TestFrontGrammarStickinessAcrossFronts: the replica token in a
// session ID is a hash of the replica's URL, not a position in one
// front's -targets order — a session opened through one front must
// advance through a second front whose target list is reversed, exactly
// the restart/multi-front scenario the package doc promises survives.
func TestFrontGrammarStickinessAcrossFronts(t *testing.T) {
	f := newFleet(t, 2)
	ftsA := newFrontOver(t, f, Options{ProbeInterval: -1, HedgeAfter: -1})
	reversed := &testFleet{urls: []string{f.urls[1], f.urls[0]}}
	ftsB := newFrontOver(t, reversed, Options{ProbeInterval: -1, HedgeAfter: -1})

	var open server.GrammarSessionResponse
	if r := postJSON(t, ftsA.URL+"/v1/grammar/session", server.GrammarSessionRequest{}, &open); r.StatusCode != http.StatusOK {
		t.Fatalf("open session via front A: %d", r.StatusCode)
	}
	toks, err := ir.ParseTokens(goodIF)
	if err != nil {
		t.Fatal(err)
	}
	var next server.GrammarNextResponse
	r := postJSON(t, ftsB.URL+"/v1/grammar/next",
		server.GrammarNextRequest{SessionID: open.SessionID, Symbol: toks[0].Sym}, &next)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("advance via front B (reversed targets): %d", r.StatusCode)
	}
	prefix := open.SessionID[:strings.IndexByte(open.SessionID, ':')+1]
	if !strings.HasPrefix(next.SessionID, prefix) {
		t.Errorf("advance via front B rebranded the session: %q -> %q", open.SessionID, next.SessionID)
	}
}

// TestFrontReadyz: the front's readiness is the fleet's readiness — 200
// while anyone can take traffic, 503 (with Retry-After) when the whole
// fleet is gone, while its own liveness stays green throughout.
func TestFrontReadyz(t *testing.T) {
	f := newFleet(t, 2)
	opts := Options{ProbeInterval: 15 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond, HedgeAfter: -1}
	opts.Targets = f.urls
	cl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	fts := httptest.NewServer(NewFront(cl).Handler())
	t.Cleanup(fts.Close)

	waitReadyz := func(want int) *http.Response {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(fts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == want || time.Now().After(deadline) {
				return resp
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	if r := waitReadyz(http.StatusOK); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz over a healthy fleet: %d", r.StatusCode)
	}

	f.kill(0)
	f.kill(1)
	r := waitReadyz(http.StatusServiceUnavailable)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz over a dead fleet: %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("front 503 carries no Retry-After")
	}

	// Liveness is not readiness, for the front too.
	hr, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("front healthz with a dead fleet: %d, want 200", hr.StatusCode)
	}

	// /varz reflects the probes' verdict.
	vr, err := http.Get(fts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(vr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	vr.Body.Close()
	for i, rs := range snap.Replicas {
		if rs.Probed && rs.Ready {
			t.Errorf("varz says dead replica %d is ready", i)
		}
	}
}

// TestFrontMetricsExposition: the cluster_* series come out of the
// front's /metrics in Prometheus text form.
func TestFrontMetricsExposition(t *testing.T) {
	f := newFleet(t, 2)
	opts := Options{ProbeInterval: -1, HedgeAfter: -1, Registry: obs.NewRegistry()}
	opts.Targets = f.urls
	cl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	fts := httptest.NewServer(NewFront(cl).Handler())
	t.Cleanup(fts.Close)

	if _, err := cl.Do(context.Background(), "/v1/compile", "m", compileBody(t, "metrics.if")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := string(raw)
	for _, series := range []string{
		"cluster_attempts_total",
		"cluster_requests_total",
		"cluster_breaker_state",
		"cluster_attempt_seconds",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

// TestFrontArtifactPassthrough: GET /v1/artifacts/{digest} through the
// front sweeps the replicas — a miss on the first falls through to the
// one holding the blob, and a fleet-wide miss is a clean 404.
func TestFrontArtifactPassthrough(t *testing.T) {
	f := newFleet(t, 2)
	fts := newFrontOver(t, f, Options{ProbeInterval: -1, HedgeAfter: -1})

	payload := []byte("fleet artifact")
	key := blob.DigestParts("front", "artifact")
	// Seed only the SECOND replica: the sweep must fall through the
	// first replica's 404.
	if err := f.servers[1].Artifacts().Put(context.Background(), key, payload); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fts.URL + blob.ArtifactPathPrefix + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact via front: %d, want 200", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("artifact body = %q", got)
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("X-Cogd-Replica") == "" {
		t.Error("passthrough dropped the ETag or replica attribution")
	}

	// Absent digest: every replica misses, the front answers 404.
	resp2, err := http.Get(fts.URL + blob.ArtifactPathPrefix + blob.DigestParts("absent"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("fleet-wide miss: %d, want 404", resp2.StatusCode)
	}

	// The front is a read-only window: PUT is refused.
	req, _ := http.NewRequest(http.MethodPut, fts.URL+blob.ArtifactPathPrefix+key, bytes.NewReader(payload))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT via front: %d, want 405", resp3.StatusCode)
	}
}

// TestFrontRoutesSpecAliasesToOneReplica: the front keys the ring by
// the canonical spec name, so "", "amdahl470" and "amdahl470.cogg" —
// one table module on every replica — warm one replica, not three.
func TestFrontRoutesSpecAliasesToOneReplica(t *testing.T) {
	keys := NewFront(nil)
	for spec, want := range map[string]string{
		"":                    "amdahl470.cogg",
		"amdahl470":           "amdahl470.cogg",
		"amdahl470.cogg":      "amdahl470.cogg",
		"minimal":             "amdahl-minimal.cogg",
		"amdahl-minimal.cogg": "amdahl-minimal.cogg",
		"risc32":              "risc32.cogg",
		"custom.cogg":         "custom.cogg",
	} {
		if got := keys.routeKey(spec); got != want {
			t.Errorf("routeKey(%q) = %q, want %q", spec, got, want)
		}
	}
	keys.SetDefaultSpec("specs/risc32.cogg")
	if got := keys.routeKey(""); got != "risc32.cogg" {
		t.Errorf("after SetDefaultSpec(specs/risc32.cogg), routeKey(\"\") = %q", got)
	}

	f := newFleet(t, 4)
	cl, err := New(Options{Targets: f.urls, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	fts := httptest.NewServer(NewFront(cl).Handler())
	t.Cleanup(fts.Close)
	owner := cl.Owner("amdahl470.cogg")
	for _, spec := range []string{"", "amdahl470", "amdahl470.cogg"} {
		r := postJSON(t, fts.URL+"/v1/compile",
			server.CompileRequest{Name: "alias.if", Lang: "if", Spec: spec, Source: goodIF}, nil)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("compile with spec %q: %d", spec, r.StatusCode)
		}
		if got := r.Header.Get("X-Cogd-Replica"); got != owner {
			t.Errorf("compile with spec %q answered by %s, want %s", spec, got, owner)
		}
		r = postJSON(t, fts.URL+"/v1/batch", server.BatchRequest{Units: []server.CompileRequest{
			{Name: "alias.if", Lang: "if", Spec: spec, Source: goodIF}}}, nil)
		if got := r.Header.Get("X-Cogd-Replica"); r.StatusCode != http.StatusOK || got != owner {
			t.Errorf("batch with spec %q: %d from %s, want 200 from %s", spec, r.StatusCode, got, owner)
		}
	}
}
