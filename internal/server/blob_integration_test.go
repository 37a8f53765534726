package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cogg/internal/blob"
)

// logBuffer captures Options.Logf lines for assertion.
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (lb *logBuffer) logf(format string, args ...any) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.lines = append(lb.lines, fmt.Sprintf(format, args...))
}

func (lb *logBuffer) contains(sub string) bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, l := range lb.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestColdReplicaWarmFetch is the tentpole scenario: replica A builds
// the spec tables and a deck; replica B boots cold with A as a blob
// peer and must construct zero tables — the module comes over
// /v1/artifacts, and the repeated deck request is answered from A's
// deck blob byte-for-byte.
func TestColdReplicaWarmFetch(t *testing.T) {
	src := readTestdata(t, "appendix1.pas")

	// Replica A: its own disk tier, no peers. Builds everything once.
	a, tsA := newTestServer(t, Options{CacheDir: t.TempDir()})
	status, respA := compile(t, tsA, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
	if status != http.StatusOK {
		t.Fatalf("replica A compile: status %d (%+v)", status, respA.Failure)
	}
	if respA.Deck == "" {
		t.Fatal("replica A produced no deck")
	}
	aStats := a.svc.Stats.Snapshot()
	if aStats.Misses != 1 {
		t.Fatalf("replica A table builds = %d, want 1", aStats.Misses)
	}

	// Replica B: cold disk, A as its blob peer.
	var lb logBuffer
	b, tsB := newTestServer(t, Options{
		CacheDir:  t.TempDir(),
		BlobPeers: []string{tsA.URL},
		Logf:      lb.logf,
	})

	// The eager table load at New() must already have come from A.
	bStats := b.svc.Stats.Snapshot()
	if bStats.Misses != 0 {
		t.Fatalf("cold replica built %d tables, want 0 (warm fetch)", bStats.Misses)
	}
	if bStats.DiskHits != 1 {
		t.Fatalf("cold replica blob-tier module hits = %d, want 1", bStats.DiskHits)
	}
	if hits := b.BlobCounters("http").Hits.Load(); hits == 0 {
		t.Fatal("no blob fetch crossed the wire to the peer")
	}
	if !lb.contains("warm fetch") {
		t.Fatalf("no warm-fetch log line; got %v", lb.lines)
	}

	// The identical deck request is served from A's deck blob without
	// compiling anything on B.
	status, respB := compile(t, tsB, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
	if status != http.StatusOK {
		t.Fatalf("replica B compile: status %d (%+v)", status, respB.Failure)
	}
	if respB.Deck != respA.Deck {
		t.Error("warm-fetched deck differs from the one replica A built")
	}
	if respB.Listing != respA.Listing || respB.Instructions != respA.Instructions {
		t.Error("cached deck response drops compile stats")
	}
	if compiled := b.svc.Stats.Snapshot().UnitsCompiled; compiled != 0 {
		t.Errorf("replica B compiled %d units for a cached deck, want 0", compiled)
	}

	// A distinct unit name misses the deck cache but still rides A's
	// module: B performs codegen, never SLR construction.
	status, respC := compile(t, tsB, CompileRequest{Name: "other.pas", Source: src, Deck: true})
	if status != http.StatusOK {
		t.Fatalf("replica B fresh-unit compile: status %d (%+v)", status, respC.Failure)
	}
	after := b.svc.Stats.Snapshot()
	if after.Misses != 0 {
		t.Errorf("fresh unit forced %d table builds on the warm replica", after.Misses)
	}
	if after.UnitsCompiled != 1 {
		t.Errorf("fresh unit compiled %d units, want 1", after.UnitsCompiled)
	}
}

// TestDeckCacheLocalRoundtrip: even without peers, a repeated deck
// request is answered from the local blob tier with identical bytes
// and no second trip through the pipeline.
func TestDeckCacheLocalRoundtrip(t *testing.T) {
	src := readTestdata(t, "appendix1.pas")
	s, ts := newTestServer(t, Options{CacheDir: t.TempDir()})

	_, first := compile(t, ts, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
	if first.Deck == "" {
		t.Fatal("no deck produced")
	}
	before := s.svc.Stats.Snapshot().UnitsCompiled
	_, second := compile(t, ts, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
	if second.Deck != first.Deck || second.Listing != first.Listing {
		t.Error("cached deck response is not byte-identical")
	}
	if after := s.svc.Stats.Snapshot().UnitsCompiled; after != before {
		t.Errorf("repeat deck request recompiled (units %d -> %d)", before, after)
	}

	// Option flags are part of the key: a different shaper setup must
	// not be served the cached deck.
	status, tuned := compile(t, ts, CompileRequest{Name: "unit.pas", Source: src, Deck: true,
		Options: CompileOptions{CSE: true}})
	if status != http.StatusOK {
		t.Fatalf("tuned compile: status %d (%+v)", status, tuned.Failure)
	}
	if s.svc.Stats.Snapshot().UnitsCompiled != before+1 {
		t.Error("option change did not miss the deck cache")
	}

	// Explain and IF views stay uncached and still carry their extras.
	status, explained := compile(t, ts, CompileRequest{Name: "unit.pas", Source: src, Deck: true, Explain: true})
	if status != http.StatusOK || explained.Derivation == nil {
		t.Fatalf("explain riding a cached deck lost its derivation (status %d)", status)
	}
}

// TestDeckMissesLeaveManifestAlone: a deck is cache, not a named
// artifact. A thousand distinct deck misses on a disk tier each put
// their blob, and none reads or rewrites index.json: the sidecar the
// boot-time module build wrote stays the same file, byte for byte, with
// its one module row.
func TestDeckMissesLeaveManifestAlone(t *testing.T) {
	const units, perBatch = 1000, 200
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{CacheDir: dir})

	indexPath := filepath.Join(dir, blob.IndexFile)
	before, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	beforeInfo, err := os.Stat(indexPath)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{}
	for b := 0; b < units/perBatch; b++ {
		reqs := make([]CompileRequest, perBatch)
		for i := range reqs {
			name := fmt.Sprintf("u%04d.pas", b*perBatch+i)
			want[name] = true
			reqs[i] = CompileRequest{Name: name, Deck: true,
				Source: "program p; var i: integer; begin i := 1 end."}
		}
		batchResults(t, ts, reqs)
	}

	after, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	afterInfo, err := os.Stat(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	// Every upsert renames a fresh temp file over the sidecar, so one
	// rewrite, even of identical bytes, replaces the file.
	if !os.SameFile(beforeInfo, afterInfo) || !bytes.Equal(before, after) {
		t.Fatalf("deck misses rewrote %s:\n%s\n->\n%s", blob.IndexFile, before, after)
	}
	ix, err := blob.ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := ix.Sorted()
	if len(rows) != 1 || rows[0].Kind != "module" {
		t.Fatalf("manifest rows = %+v, want one module row", rows)
	}

	// Every deck is on disk as an unreferenced blob naming its unit.
	ctx := context.Background()
	fs := blob.NewFS(dir)
	infos, err := fs.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if in.Key == rows[0].Key {
			continue
		}
		data, err := fs.Get(ctx, in.Key)
		if err != nil {
			t.Fatal(err)
		}
		var head struct{ Name string }
		if err := json.Unmarshal(data, &head); err != nil {
			t.Fatalf("blob %s is not a deck body: %v", in.Key[:12], err)
		}
		delete(want, head.Name)
	}
	if len(want) != 0 {
		t.Errorf("%d of %d decks have no blob on disk", len(want), units)
	}
}

// blackholePeer proxies to a live upstream until tripped; after that
// every request stalls until the client gives up. This is the
// "switch partition" failure the fleet must degrade around.
type blackholePeer struct {
	proxy   *httputil.ReverseProxy
	tripped atomic.Bool
}

func newBlackholePeer(t *testing.T, upstream string) (*httptest.Server, *blackholePeer) {
	t.Helper()
	u, err := url.Parse(upstream)
	if err != nil {
		t.Fatal(err)
	}
	bp := &blackholePeer{proxy: httputil.NewSingleHostReverseProxy(u)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bp.tripped.Load() {
			<-r.Context().Done()
			return
		}
		bp.proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, bp
}

// TestBlobPeerBlackholedDegrades is the server-level chaos scenario:
// the remote tier disappears mid-run (requests hang, not error) and
// the replica must keep serving — local builds, zero failed requests,
// decks byte-identical to a peerless baseline.
func TestBlobPeerBlackholedDegrades(t *testing.T) {
	src := readTestdata(t, "appendix1.pas")

	// Baseline: a peerless server defines the expected bytes.
	_, tsBase := newTestServer(t, Options{})
	_, baseline := compile(t, tsBase, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
	if baseline.Deck == "" {
		t.Fatal("baseline produced no deck")
	}

	// A healthy donor fleet member behind a trippable proxy.
	_, tsA := newTestServer(t, Options{CacheDir: t.TempDir()})
	hole, trip := newBlackholePeer(t, tsA.URL)

	b, tsB := newTestServer(t, Options{
		BlobPeers:          []string{hole.URL},
		BlobAttemptTimeout: 75 * time.Millisecond,
	})
	// Warm start worked through the proxy: no tables built locally.
	if m := b.svc.Stats.Snapshot().Misses; m != 0 {
		t.Fatalf("replica built %d tables with a healthy peer, want 0", m)
	}

	// Partition the fleet mid-run.
	trip.tripped.Store(true)

	// Every request must still succeed, and decks must match the
	// baseline bit for bit — the remote tier degrades, never corrupts.
	for i := 0; i < 3; i++ {
		status, resp := compile(t, tsB, CompileRequest{Name: "unit.pas", Source: src, Deck: true})
		if status != http.StatusOK {
			t.Fatalf("request %d during blackhole: status %d (%+v)", i, status, resp.Failure)
		}
		if resp.Deck != baseline.Deck {
			t.Fatalf("request %d deck diverged from baseline during blackhole", i)
		}
	}
	if errs := b.BlobCounters("http").GetErrs.Load(); errs == 0 {
		t.Error("blackholed peer produced no recorded fetch errors")
	}
}

// TestMetricsExposeBlobSeries: the cogg_blob_* family must reach the
// Prometheus exposition with per-backend labels.
func TestMetricsExposeBlobSeries(t *testing.T) {
	src := readTestdata(t, "appendix1.pas")
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir()})
	if status, resp := compile(t, ts, CompileRequest{Name: "unit.pas", Source: src, Deck: true}); status != http.StatusOK {
		t.Fatalf("compile: status %d (%+v)", status, resp.Failure)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cogg_blob_hits_total{backend="fs"}`,
		`cogg_blob_hits_total{backend="mem"}`,
		`cogg_blob_puts_total{backend="fs"}`,
		`cogg_blob_verify_failures_total{backend="mem"}`,
		"cogg_blob_fetch_seconds_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
