package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cogg/internal/batch"
	"cogg/internal/obs"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseSamples maps each sample line ("name{labels} value") to its
// value, keyed by the full series text before the value.
func parseSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries sums every series whose name (before any label set) is name.
func sumSeries(samples map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range samples {
		base, _, _ := strings.Cut(k, "{")
		if base == name {
			total += v
		}
	}
	return total
}

// TestMetricsUnderConcurrentLoad drives the daemon with 8 concurrent
// workers mixing good and failing units while other goroutines scrape
// /metrics, /healthz, and /varz, then asserts the exposition is valid,
// the required series are present and non-zero, and every counter is
// monotone between two successive scrapes.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := CompileRequest{Name: fmt.Sprintf("u%d-%d", w, i), Lang: "if", Source: goodIF}
				if i%4 == 3 {
					req.Source = badIF // exercise the failure counters
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	// Concurrent scrapers: the registry must stay consistent while the
	// instruments are being updated.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for _, path := range []string{"/metrics", "/healthz", "/varz"} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	first := scrape(t, ts)
	if err := obs.LintExposition(first); err != nil {
		t.Fatalf("first scrape not valid exposition: %v", err)
	}
	// One more successful unit between the scrapes, so monotonicity is
	// tested against real movement, not a frozen registry.
	if status, _ := compile(t, ts, CompileRequest{Name: "between", Lang: "if", Source: goodIF}); status != http.StatusOK {
		t.Fatalf("between-scrapes compile: status %d", status)
	}
	second := scrape(t, ts)
	if err := obs.LintExposition(second); err != nil {
		t.Fatalf("second scrape not valid exposition: %v", err)
	}

	a, b := parseSamples(t, first), parseSamples(t, second)
	for _, name := range []string{
		"cogg_translations_total",
		"cogg_translation_failures_total",
		"cogg_reductions_total",
		"cogg_units_compiled_total",
		"cogg_units_failed_total",
		"cogg_register_allocs_total",
		"cogd_http_requests_total",
		"cogd_requests_total",
		"cogd_sessions_total",
		"cogd_microbatches_total",
	} {
		if sumSeries(b, name) <= 0 {
			t.Errorf("series %s absent or zero after load", name)
		}
	}
	// Per-phase latency histograms must have observations.
	for _, phase := range []string{"parse-reduce", "regalloc", "emit"} {
		found := false
		for k, v := range b {
			if strings.HasPrefix(k, "cogg_phase_seconds_count") && strings.Contains(k, `phase="`+phase+`"`) && v > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("cogg_phase_seconds for phase %q has no observations", phase)
		}
	}
	// Counters are monotone: every *_total series present in the first
	// scrape must be <= its value in the second.
	for k, va := range a {
		base, _, _ := strings.Cut(k, "{")
		if !strings.HasSuffix(base, "_total") && !strings.HasSuffix(base, "_count") && !strings.HasSuffix(base, "_bucket") {
			continue
		}
		if vb, ok := b[k]; ok && vb < va {
			t.Errorf("counter %s went backwards: %v -> %v", k, va, vb)
		}
	}
	if sumSeries(b, "cogg_translations_total") <= sumSeries(a, "cogg_translations_total") {
		t.Errorf("cogg_translations_total did not advance between scrapes")
	}
}

// TestTraceIDPropagation asserts the client's X-Trace-Id is honored
// end-to-end: echoed in the response header and body, and retrievable
// from /v1/traces with the pipeline's phase spans attached.
func TestTraceIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	const id = "cafe0123deadbeef"
	body, _ := json.Marshal(CompileRequest{Name: "traced", Lang: "if", Source: goodIF})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != id {
		t.Errorf("response header X-Trace-Id = %q, want %q", got, id)
	}
	var cr CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.TraceID != id {
		t.Errorf("body trace_id = %q, want %q", cr.TraceID, id)
	}

	var traces TracesResponse
	if status := getJSON(t, ts.URL+"/v1/traces", &traces); status != http.StatusOK {
		t.Fatalf("/v1/traces: status %d", status)
	}
	var td *obs.TraceData
	for _, cand := range traces.Traces {
		if cand.ID == id {
			td = cand
			break
		}
	}
	if td == nil {
		t.Fatalf("trace %s not in /v1/traces (%d traces)", id, len(traces.Traces))
	}
	if td.Name != "traced" {
		t.Errorf("trace name = %q, want %q", td.Name, "traced")
	}
	want := map[string]bool{"request": false, "unit:traced": false, "queue-wait": false, "parse-reduce": false, "regalloc": false, "emit": false}
	for _, sp := range td.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
			if sp.DurNS < 0 {
				t.Errorf("span %s unfinished in completed request", sp.Name)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q missing from trace", name)
		}
	}
}

// TestTracesRingAndQuery asserts the ring bound holds and the n query
// parameter limits (and validates).
func TestTracesRingAndQuery(t *testing.T) {
	_, ts := newTestServer(t, Options{TraceRing: 4})

	for i := 0; i < 10; i++ {
		if status, _ := compile(t, ts, CompileRequest{Name: fmt.Sprintf("r%d", i), Lang: "if", Source: goodIF}); status != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, status)
		}
	}
	var traces TracesResponse
	getJSON(t, ts.URL+"/v1/traces", &traces)
	if len(traces.Traces) != 4 {
		t.Errorf("ring of 4 returned %d traces", len(traces.Traces))
	}
	// Newest first: the most recent unit appears before older ones.
	if len(traces.Traces) > 0 && traces.Traces[0].Name != "r9" {
		t.Errorf("newest trace is %q, want r9", traces.Traces[0].Name)
	}
	getJSON(t, ts.URL+"/v1/traces?n=2", &traces)
	if len(traces.Traces) != 2 {
		t.Errorf("n=2 returned %d traces", len(traces.Traces))
	}
	if status := getJSON(t, ts.URL+"/v1/traces?n=-1", &ErrorResponse{}); status != http.StatusBadRequest {
		t.Errorf("n=-1: status %d, want 400", status)
	}
}

// TestBlockedParseDerivation asserts a blocked parse's 422 carries the
// partial derivation: the instructions the recovery emitted before and
// between the blocks, attributed to their productions.
func TestBlockedParseDerivation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// One healthy statement, then a blocked one: the healthy prefix
	// guarantees recorded instructions precede the block.
	src := goodIF + " " + badIF
	status, resp := compile(t, ts, CompileRequest{Name: "blocked", Lang: "if", Source: src})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if resp.Failure == nil || resp.Failure.Mode != batch.FailBlocked.String() {
		t.Fatalf("failure = %+v, want blocked", resp.Failure)
	}
	if len(resp.Failure.Blocks) == 0 {
		t.Error("422 carries no block diagnostics")
	}
	if len(resp.Failure.Derivation) == 0 {
		t.Fatal("422 carries no partial derivation")
	}
	for _, e := range resp.Failure.Derivation {
		if e.Op == "" || e.Kind == "" {
			t.Errorf("malformed derivation entry %+v", e)
		}
	}
}

// TestExplainRequest asserts explain:true returns the full derivation
// alongside a successful listing, with every entry attributed.
func TestExplainRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	status, resp := compile(t, ts, CompileRequest{Name: "exp", Lang: "if", Source: goodIF, Explain: true})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Derivation) == 0 {
		t.Fatal("explain:true returned no derivation")
	}
	for _, e := range resp.Derivation {
		if e.Kind != "template" && e.Kind != "semantic" && e.Kind != "evict-move" {
			t.Errorf("entry %d has unknown kind %q", e.Instr, e.Kind)
		}
		if e.Prod <= 0 {
			t.Errorf("entry %d not attributed to a production: %+v", e.Instr, e)
		}
	}
	// Off by default: the same request without explain carries none.
	_, plain := compile(t, ts, CompileRequest{Name: "plain", Lang: "if", Source: goodIF})
	if len(plain.Derivation) != 0 {
		t.Errorf("derivation returned without explain:true")
	}
}

// TestSlowRequestLog asserts requests past the threshold dump their
// span tree to the configured writer.
func TestSlowRequestLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Options{SlowThreshold: time.Nanosecond, SlowLog: &buf})

	if status, _ := compile(t, ts, CompileRequest{Name: "slow", Lang: "if", Source: goodIF}); status != http.StatusOK {
		t.Fatalf("compile: status %d", status)
	}
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "parse-reduce") {
		t.Errorf("slow log missing span tree, got %q", out)
	}
}

// TestSlowRequestLogJSON asserts the structured slow-request record
// carries the span tree too, not just a span count.
func TestSlowRequestLogJSON(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Options{SlowThreshold: time.Nanosecond, Logger: logger})

	if status, _ := compile(t, ts, CompileRequest{Name: "slow", Lang: "if", Source: goodIF}); status != http.StatusOK {
		t.Fatalf("compile: status %d", status)
	}
	var rec struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Tree    string `json:"tree"`
	}
	line, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow log record %q: %v", line, err)
	}
	if rec.Msg != "slow request" || rec.TraceID == "" {
		t.Errorf("slow log record lacks msg or trace_id: %q", line)
	}
	if !strings.Contains(rec.Tree, "parse-reduce") {
		t.Errorf("slow log record carries no span tree: %q", line)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slow log writes from
// handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
