package server

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cogg/internal/batch"
	"cogg/internal/faultinject"
	"cogg/specs"
)

func TestCompileIF(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, resp := compile(t, ts, CompileRequest{Name: "t.if", Lang: "if", Source: goodIF})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (failure: %+v)", status, resp.Failure)
	}
	if resp.Instructions == 0 || resp.Listing == "" || resp.CodeBytes == 0 {
		t.Fatalf("empty translation: %+v", resp)
	}
	if !strings.Contains(resp.Listing, "st") {
		t.Fatalf("listing has no store instruction:\n%s", resp.Listing)
	}
}

func TestCompilePascal(t *testing.T) {
	src, err := os.ReadFile("testdata/appendix1.pas")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})
	status, resp := compile(t, ts, CompileRequest{
		Name: "appendix1.pas", Source: string(src), Deck: true, IF: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (failure: %+v)", status, resp.Failure)
	}
	if resp.Tokens == 0 || resp.Reductions == 0 || resp.Instructions == 0 {
		t.Fatalf("empty compile stats: %+v", resp)
	}
	deck, err := base64.StdEncoding.DecodeString(resp.Deck)
	if err != nil {
		t.Fatalf("deck is not valid base64: %v", err)
	}
	if len(deck) == 0 || !strings.Contains(string(deck), "TXT") {
		t.Fatalf("deck missing or malformed: %q", deck[:min(len(deck), 80)])
	}
	if !strings.Contains(resp.IF, "assign") {
		t.Fatalf("IF view missing: %q", resp.IF[:min(len(resp.IF), 80)])
	}
}

// TestFailureStatusMapping drives one request per failure mode and
// checks the HTTP mapping: blocked -> 422 with BlockDiags, resource
// limit -> 413, panic -> 500, front-end rejection -> 400.
func TestFailureStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	t.Run("blocked is 422 with diagnostics", func(t *testing.T) {
		status, resp := compile(t, ts, CompileRequest{Name: "b.if", Lang: "if", Source: badIF})
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", status)
		}
		if resp.Failure == nil || resp.Failure.Mode != "blocked" {
			t.Fatalf("failure = %+v, want mode blocked", resp.Failure)
		}
		if len(resp.Failure.Blocks) == 0 {
			t.Fatal("no BlockDiags in a blocked failure")
		}
		d := resp.Failure.Blocks[0]
		if d.Lookahead == "" || d.Reason == "" {
			t.Fatalf("empty diagnostic: %+v", d)
		}
	})

	t.Run("front-end rejection is 400", func(t *testing.T) {
		status, resp := compile(t, ts, CompileRequest{Name: "bad.pas", Source: "program p; begin x := end."})
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
		if resp.Failure == nil || resp.Failure.Mode != "other" {
			t.Fatalf("failure = %+v, want mode other", resp.Failure)
		}
	})

	t.Run("panic-isolated unit is 500 with failure class", func(t *testing.T) {
		faultinject.Set(faultinject.Rule{
			Site: "codegen/reduce", Key: "boom.if", Kind: faultinject.KindPanic, Count: 1,
		})
		defer faultinject.Reset()
		status, resp := compile(t, ts, CompileRequest{Name: "boom.if", Lang: "if", Source: goodIF})
		if status != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", status)
		}
		if resp.Failure == nil || resp.Failure.Mode != "panic" {
			t.Fatalf("failure = %+v, want mode panic", resp.Failure)
		}
		// The daemon survived: the next request succeeds.
		if status, resp := compile(t, ts, CompileRequest{Name: "after.if", Lang: "if", Source: goodIF}); status != http.StatusOK {
			t.Fatalf("request after panic: status %d (%+v)", status, resp.Failure)
		}
	})

	t.Run("resource limit is 413", func(t *testing.T) {
		// A daemon with a tiny parse-stack bound turns any real
		// translation into a ResourceError.
		_, tsTight := newTestServer(t, Options{MaxStackDepth: 3})
		status, resp := compile(t, tsTight, CompileRequest{Name: "deep.if", Lang: "if", Source: goodIF})
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (failure: %+v)", status, resp.Failure)
		}
		if resp.Failure == nil || resp.Failure.Mode != "resource-limit" {
			t.Fatalf("failure = %+v, want mode resource-limit", resp.Failure)
		}
	})
}

func TestStatusFor(t *testing.T) {
	cases := map[string]int{
		"none": 200, "blocked": 422, "timeout": 504,
		"resource-limit": 413, "panic": 500, "io": 500, "other": 400,
	}
	for mode := 0; mode < 7; mode++ {
		m := batch.FailureMode(mode)
		want, ok := cases[m.String()]
		if !ok {
			t.Fatalf("unmapped mode %v", m)
		}
		if got := StatusFor(m); got != want {
			t.Errorf("StatusFor(%v) = %d, want %d", m, got, want)
		}
	}
}

func TestUnknownSpecAndLang(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _ := compile(t, ts, CompileRequest{Lang: "if", Source: goodIF, Spec: "../etc/passwd"}); status != http.StatusBadRequest {
		t.Fatalf("path-shaped spec: status %d, want 400", status)
	}
	if status, _ := compile(t, ts, CompileRequest{Lang: "fortran", Source: "x"}); status != http.StatusBadRequest {
		t.Fatalf("unknown lang: status %d, want 400", status)
	}
}

// TestDefaultSpecAliases: a daemon whose default spec was loaded from a
// file path (as `cogd -spec specs/amdahl470.cogg` loads it) serves
// every alias of that spec from the one default target — one module,
// built once — while the path itself stays unservable.
func TestDefaultSpecAliases(t *testing.T) {
	sp, err := specs.Load("../../specs/amdahl470.cogg")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{SpecName: sp.Name, SpecSrc: sp.Src})
	for _, name := range []string{"", "amdahl470", "amdahl470.cogg"} {
		if status, resp := compile(t, ts, CompileRequest{Lang: "if", Source: goodIF, Spec: name}); status != http.StatusOK {
			t.Fatalf("spec %q: status %d (failure: %+v)", name, status, resp.Failure)
		}
	}
	if status, _ := compile(t, ts, CompileRequest{Lang: "if", Source: goodIF, Spec: "../../specs/amdahl470.cogg"}); status != http.StatusBadRequest {
		t.Errorf("file-path spec: status %d, want 400", status)
	}
	s.tmu.Lock()
	targets := len(s.targets)
	s.tmu.Unlock()
	if targets != 1 {
		t.Errorf("%d targets, want 1", targets)
	}
	if got := parseSamples(t, scrape(t, ts))["cogg_cache_misses_total"]; got != 1 {
		t.Errorf("cogg_cache_misses_total = %v, want 1", got)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := BatchRequest{Units: []CompileRequest{
		{Name: "a.if", Lang: "if", Source: goodIF},
		{Name: "b.if", Lang: "if", Source: badIF},
		{Name: "c.if", Lang: "if", Source: goodIF},
	}}
	var resp BatchResponse
	if status := post(t, ts.URL+"/v1/batch", req, &resp); status != http.StatusOK {
		t.Fatalf("batch status %d, want 200", status)
	}
	if len(resp.Results) != 3 || resp.Failed != 1 {
		t.Fatalf("results %d failed %d, want 3/1", len(resp.Results), resp.Failed)
	}
	if resp.Results[0].Name != "a.if" || resp.Results[2].Name != "c.if" {
		t.Fatal("batch results not in input order")
	}
	if resp.Results[1].Failure == nil || resp.Results[1].Failure.Mode != "blocked" {
		t.Fatalf("unit b failure = %+v, want blocked", resp.Results[1].Failure)
	}
	// Listings agree except the header line, which carries the unit name.
	body := func(l string) string {
		if _, rest, ok := strings.Cut(l, "\n"); ok {
			return rest
		}
		return l
	}
	if body(resp.Results[0].Listing) != body(resp.Results[2].Listing) {
		t.Fatal("identical units produced different listings")
	}
}

// varz fetches the /varz snapshot.
func varz(t *testing.T, ts *httptest.Server) Varz {
	t.Helper()
	var v Varz
	if status := getJSON(t, ts.URL+"/varz", &v); status != http.StatusOK {
		t.Fatalf("/varz: status %d", status)
	}
	return v
}

// TestBatchUnitOutcomes: every unit /v1/batch accepts ends in a terminal
// outcome, the way a /v1/compile request does: each answered unit
// counts completed or failed, and every unit of a batch refused for
// one bad unit counts failed.
func TestBatchUnitOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	before := varz(t, ts).Server
	req := BatchRequest{Units: []CompileRequest{
		{Name: "a.if", Lang: "if", Source: goodIF},
		{Name: "b.if", Lang: "if", Source: badIF},
		{Name: "c.if", Lang: "if", Source: goodIF},
	}}
	if status := post(t, ts.URL+"/v1/batch", req, nil); status != http.StatusOK {
		t.Fatalf("batch status %d, want 200", status)
	}
	after := varz(t, ts).Server
	if d := after.Accepted - before.Accepted; d != 3 {
		t.Errorf("accepted +%d, want +3", d)
	}
	if dc, df := after.Completed-before.Completed, after.Failed-before.Failed; dc != 2 || df != 1 {
		t.Errorf("completed +%d failed +%d, want +2 +1", dc, df)
	}

	before = after
	req.Units[1].Lang = "cobol"
	if status := post(t, ts.URL+"/v1/batch", req, nil); status != http.StatusBadRequest {
		t.Fatalf("batch with a bad unit: status %d, want 400", status)
	}
	after = varz(t, ts).Server
	if da, df := after.Accepted-before.Accepted, after.Failed-before.Failed; da != 3 || df != 3 {
		t.Errorf("refused batch: accepted +%d failed +%d, want +3 +3", da, df)
	}
	if dc := after.Completed - before.Completed; dc != 0 {
		t.Errorf("refused batch: completed +%d, want +0", dc)
	}
}

// TestCodeBytesCounted: raw-IF and Pascal units both add their laid-out
// code bytes to the batch counters, so cogg_code_bytes_total and /varz
// agree with the responses' code_bytes.
func TestCodeBytesCounted(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sieve, err := os.ReadFile("testdata/sieve.pas")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, req := range []CompileRequest{
		{Name: "a.if", Lang: "if", Source: goodIF},
		{Name: "sieve.pas", Source: string(sieve)},
		{Name: "b.if", Lang: "if", Source: goodIF},
		{Name: "sieve.pas+cse", Source: string(sieve), Options: CompileOptions{CSE: true}},
	} {
		status, resp := compile(t, ts, req)
		if status != http.StatusOK || resp.CodeBytes <= 0 {
			t.Fatalf("%s: status %d, %d code bytes (%+v)", req.Name, status, resp.CodeBytes, resp.Failure)
		}
		total += resp.CodeBytes
	}
	if got := parseSamples(t, scrape(t, ts))["cogg_code_bytes_total"]; got != float64(total) {
		t.Errorf("cogg_code_bytes_total = %v, want %d", got, total)
	}
	if got := varz(t, ts).Batch.BytesEmitted; got != int64(total) {
		t.Errorf("/varz batch BytesEmitted = %d, want %d", got, total)
	}
}

// TestQueueOverload: with the admission bound at 2 and two slow
// requests in flight, a third request is refused with 429 instead of
// queuing without bound.
func TestQueueOverload(t *testing.T) {
	faultinject.Set(faultinject.Rule{
		Site: "codegen/reduce", Key: "slow.if", Kind: faultinject.KindDelay, Delay: 150 * time.Millisecond,
	})
	defer faultinject.Reset()
	s, ts := newTestServer(t, Options{QueueBound: 2, Workers: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp := compile(t, ts, CompileRequest{Name: "slow.if", Lang: "if", Source: goodIF})
			if status != http.StatusOK {
				t.Errorf("slow request: status %d (%+v)", status, resp.Failure)
			}
		}()
	}
	// Let both slow requests pass admission before the third arrives.
	deadline := time.Now().Add(2 * time.Second)
	for s.admitted.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	status, _ := compile(t, ts, CompileRequest{Name: "third.if", Lang: "if", Source: goodIF})
	if status != http.StatusTooManyRequests {
		t.Errorf("overload status %d, want 429", status)
	}
	wg.Wait()
	if got := s.stats.RejectedQueueFull.Load(); got < 1 {
		t.Errorf("RejectedQueueFull = %d, want >= 1", got)
	}
}

// TestConcurrentClients is the acceptance race check: 8 clients hammer
// one daemon with a mix of Pascal, raw IF, and blocked units; every
// response must be consistent, and the run is expected to be exercised
// under -race.
func TestConcurrentClients(t *testing.T) {
	sieve, err := os.ReadFile("testdata/sieve.pas")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})

	const clients = 8
	const perClient = 12
	var wantListing, wantPascal string
	{
		status, resp := compile(t, ts, CompileRequest{Name: "w.if", Lang: "if", Source: goodIF})
		if status != 200 {
			t.Fatalf("priming request failed: %d", status)
		}
		wantListing = resp.Listing
	}
	pascalReq := CompileRequest{Name: "s.pas", Source: string(sieve), Options: CompileOptions{CSE: true}}
	{
		status, resp := compile(t, ts, pascalReq)
		if status != 200 {
			t.Fatalf("priming pascal request failed: %d", status)
		}
		wantPascal = resp.Listing
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch i % 3 {
				case 0:
					status, resp := compile(t, ts, CompileRequest{Name: "w.if", Lang: "if", Source: goodIF})
					if status != 200 {
						t.Errorf("client %d: if status %d", c, status)
					} else if resp.Listing != wantListing {
						t.Errorf("client %d: listing diverged under concurrency", c)
					}
				case 1:
					status, resp := compile(t, ts, pascalReq)
					if status != 200 {
						t.Errorf("client %d: pascal status %d", c, status)
					} else if resp.Listing != wantPascal {
						t.Errorf("client %d: pascal listing diverged under concurrency", c)
					}
				default:
					status, _ := compile(t, ts, CompileRequest{Name: "bad.if", Lang: "if", Source: badIF})
					if status != http.StatusUnprocessableEntity {
						t.Errorf("client %d: blocked status %d", c, status)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestHealthzAndVarz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}

	if status, _ := compile(t, ts, CompileRequest{Name: "v.if", Lang: "if", Source: goodIF}); status != 200 {
		t.Fatalf("compile before varz: %d", status)
	}
	var v Varz
	if status := getJSON(t, ts.URL+"/varz", &v); status != http.StatusOK {
		t.Fatalf("varz %d, want 200", status)
	}
	if v.Server.Completed < 1 || v.Server.Accepted < 1 {
		t.Fatalf("varz server counters empty: %+v", v.Server)
	}
	if v.Batch.UnitsCompiled < 1 {
		t.Fatalf("varz batch counters empty: %+v", v.Batch)
	}
	if _, ok := v.Pools["amdahl470.cogg"]; !ok {
		t.Fatalf("varz pools missing default spec: %v", v.Pools)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
