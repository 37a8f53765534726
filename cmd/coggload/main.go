// Command coggload is the load generator for the cogd compilation
// daemon: closed-loop (a fixed set of workers issuing requests
// back-to-back) or open-loop (requests launched on a fixed schedule
// regardless of completions, the tail-latency-honest mode), with a
// latency histogram and a machine-readable summary.
//
// Usage:
//
//	coggload [flags]
//
//	-url URL      daemon base URL (default http://127.0.0.1:8470)
//	-targets URLS comma-separated replica base URLs: drive a whole fleet
//	              through the cluster policy engine (internal/cluster),
//	              spreading load across replicas and reporting a
//	              per-replica latency breakdown; overrides -url
//	-retries N    retryable-answer (transport error, 429, 5xx) retries
//	              per request through the policy engine (default 0: a
//	              failure is a failure, the measurement-honest mode)
//	-timeout D    per-attempt timeout in the policy engine (0: none)
//	-hedge-after D hedge a request still unanswered after D; 0 adapts
//	              to the observed p99, -1 disables (default -1)
//	-lang L       request language: pascal (default) or if
//	-src FILE     request source; default is an embedded Pascal program
//	              (or an embedded IF stream with -lang if)
//	-synth DIR    cycle request bodies through the *.if corpus files in
//	              DIR (as written by ifsynth -out), implying -lang if:
//	              load with grammar-wide variety instead of one fixed
//	              program
//	-spec NAME    spec the requests select: an embedded name (the list
//	              is specs.Lookup's) or the daemon default's name;
//	              empty selects the default
//	-n N          closed loop: total requests (default 500)
//	-c N          closed loop: concurrent workers (default 8)
//	-rate R       open loop: launch R requests/second instead of the
//	              closed loop (0 disables)
//	-duration D   open loop: how long to generate load (default 10s)
//	-warmup N     unmeasured priming requests (default 2*c)
//	-deadline D   per-request deadline_ms sent to the daemon (0: none)
//	-name NAME    benchmark name in the JSON summary (default
//	              BenchmarkLoadCompile/<lang>)
//	-o FILE       write the summary as benchgate-compatible JSON: p50
//	              latency as ns_per_op, p95/p99/throughput plus
//	              per-status counts and latency percentiles as metrics,
//	              so serving regressions gate exactly like the
//	              micro-benchmarks (cmd/benchgate)
//	-report-blob  scrape each target's /metrics after the run and fold
//	              the artifact-tier counters (cogg_blob_*, cogg_cache_*)
//	              into the summary — how much work came warm from the
//	              shared tier versus built from source; in a fleet run
//	              each key is prefixed by the replica's host:port
//	-report-slo   scrape each target's /metrics cogg_slo_* series —
//	              request/breach totals and the 1m/10m burn-rate gauges —
//	              into the summary, so a load run records how far the
//	              fleet was from its latency objective
//
// Latency is reported per HTTP status as well as in aggregate: each
// status' count and p50/p95/p99 are printed and included in the JSON,
// so rejections and timeouts no longer fold silently into (or hide
// from) the success distribution.
//
//	-note NOTE    note stored in the JSON summary
//
// Exit status is nonzero when any request failed (non-2xx other than
// backpressure 429s in open-loop mode, which are counted separately).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/cluster"
)

// defaultPascal keeps the daemon's full pipeline busy: procedures,
// loops, arrays — the end2end example's sieve, truncated for brevity.
const defaultPascal = `
program load;
var v: array[1..20] of integer;
    i, sum, prod: integer;

function square(n: integer): integer;
begin
  square := n * n
end;

begin
  sum := 0; prod := 1;
  for i := 1 to 20 do v[i] := square(i) - i;
  for i := 1 to 20 do
  begin
    sum := sum + v[i];
    if odd(i) then prod := prod * 2
  end;
  writeln(sum); writeln(prod)
end.
`

// defaultIF exercises the raw-IF fast path: the paper's running
// example shape, assignment with indexing and arithmetic.
const defaultIF = `assign fullword dsp.96 r.13 iadd imult fullword dsp.100 r.13 fullword dsp.104 r.13 isub fullword dsp.108 r.13 pos_constant v.7`

type result struct {
	latency time.Duration
	status  int
	replica string
	err     error
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8470", "daemon base URL")
	targetsFlag := flag.String("targets", "", "comma-separated replica base URLs (overrides -url)")
	retries := flag.Int("retries", 0, "retryable-answer retries per request")
	attemptTimeout := flag.Duration("timeout", 0, "per-attempt timeout (0: none)")
	hedgeAfter := flag.Duration("hedge-after", -1, "hedge delay (0: adaptive p99, -1: off)")
	lang := flag.String("lang", "pascal", "request language: pascal or if")
	srcFile := flag.String("src", "", "request source file (default: embedded)")
	synthDir := flag.String("synth", "", "directory of *.if corpus files to cycle through (implies -lang if)")
	spec := flag.String("spec", "", "spec the requests select")
	n := flag.Int("n", 500, "closed loop: total requests")
	c := flag.Int("c", 8, "closed loop: concurrent workers")
	rate := flag.Float64("rate", 0, "open loop: requests per second (0: closed loop)")
	duration := flag.Duration("duration", 10*time.Second, "open loop: load duration")
	warmup := flag.Int("warmup", -1, "unmeasured priming requests (default 2*c)")
	deadline := flag.Duration("deadline", 0, "per-request deadline sent to the daemon")
	benchName := flag.String("name", "", "benchmark name in the JSON summary")
	out := flag.String("o", "", "write benchgate-compatible JSON summary")
	note := flag.String("note", "", "note stored in the JSON summary")
	reportBlob := flag.Bool("report-blob", false, "scrape each target's /metrics cogg_blob_* and cache counters into the summary")
	reportSLO := flag.Bool("report-slo", false, "scrape each target's /metrics cogg_slo_* burn-rate series into the summary")
	flag.Parse()

	if *synthDir != "" {
		if *srcFile != "" {
			fatal(fmt.Errorf("-synth and -src are mutually exclusive"))
		}
		*lang = "if"
	}
	source := defaultPascal
	if *lang == "if" {
		source = defaultIF
	} else if *lang != "pascal" {
		fatal(fmt.Errorf("unknown -lang %q", *lang))
	}
	if *srcFile != "" {
		b, err := os.ReadFile(*srcFile)
		if err != nil {
			fatal(err)
		}
		source = string(b)
	}
	sources := []string{source}
	if *synthDir != "" {
		var err error
		if sources, err = loadSynthCorpus(*synthDir); err != nil {
			fatal(err)
		}
	}
	if *warmup < 0 {
		*warmup = 2 * *c
	}
	if *benchName == "" {
		*benchName = "BenchmarkLoadCompile/" + *lang
	}

	bodies := make([][]byte, len(sources))
	for i, src := range sources {
		body, err := json.Marshal(map[string]any{
			"name":        "load." + *lang,
			"lang":        *lang,
			"source":      src,
			"spec":        *spec,
			"deadline_ms": int(deadline.Milliseconds()),
		})
		if err != nil {
			fatal(err)
		}
		bodies[i] = body
	}
	targets := []string{*url}
	multi := false
	if *targetsFlag != "" {
		targets = nil
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		multi = len(targets) > 1
	}
	// All traffic flows through the cluster policy engine — the same
	// retry/hedge/breaker implementation as cmd/cogdfront — so a load
	// test measures exactly the client behavior production gets. With
	// the default single target, zero retries, and hedging off, the
	// engine is a pass-through and measurement semantics are unchanged:
	// active /readyz probing stays off (no background traffic) and the
	// circuit breaker is effectively disabled, so a run of 5xx answers
	// is recorded as the daemon's real responses instead of tripping
	// into synthetic "no admissible replica" errors that would skew the
	// reported status and latency distributions.
	plain := !multi && *retries == 0 && *hedgeAfter < 0
	probe := time.Duration(-1)
	breakerThreshold := 0 // the cluster default
	if !plain {
		probe = 250 * time.Millisecond
	} else {
		breakerThreshold = math.MaxInt32
	}
	cl, err := cluster.New(cluster.Options{
		Targets:          targets,
		MaxRetries:       *retries,
		AttemptTimeout:   *attemptTimeout,
		HedgeAfter:       *hedgeAfter,
		ProbeInterval:    probe,
		BreakerThreshold: breakerThreshold,
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * *c,
			MaxIdleConnsPerHost: 4 * *c,
		}},
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	var seq atomic.Int64
	shoot := func() result {
		i := seq.Add(1) - 1
		body := bodies[int(i)%len(bodies)]
		// The routing key varies per request so a fleet is loaded
		// uniformly; real clients keying by spec alone would concentrate
		// each spec's traffic on its hash owner instead.
		key := fmt.Sprintf("%s/%d", *spec, i)
		t0 := time.Now()
		res, err := cl.Do(context.Background(), "/v1/compile", key, body)
		if err != nil {
			return result{latency: time.Since(t0), err: err}
		}
		return result{latency: time.Since(t0), status: res.Status, replica: res.Replica}
	}

	for i := 0; i < *warmup; i++ {
		if r := shoot(); r.err != nil {
			fatal(fmt.Errorf("warmup request: %w", r.err))
		}
	}

	var results []result
	var elapsed time.Duration
	mode := ""
	if *rate > 0 {
		mode = fmt.Sprintf("open loop, %.0f req/s for %v", *rate, *duration)
		results, elapsed = openLoop(shoot, *rate, *duration)
	} else {
		mode = fmt.Sprintf("closed loop, %d workers, %d requests", *c, *n)
		results, elapsed = closedLoop(shoot, *n, *c)
	}

	target := *url
	if multi {
		target = strings.Join(targets, ", ")
	}
	snap := cl.Snapshot()
	extra := map[string]float64{}
	if *reportBlob {
		mergeMetrics(extra, scrapeFleetMetrics(targets, multi, "cogg_blob_", "cogg_cache_"))
	}
	if *reportSLO {
		mergeMetrics(extra, scrapeFleetMetrics(targets, multi, "cogg_slo_"))
	}
	report(os.Stdout, mode, target, results, elapsed, *benchName, *out, *note, multi, snap, extra)
}

// closedLoop issues total requests from c workers back-to-back.
func closedLoop(shoot func() result, total, c int) ([]result, time.Duration) {
	results := make([]result, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				results[i] = shoot()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

// openLoop launches requests on a fixed schedule, decoupled from
// completions: queueing delay shows up as latency instead of throttling
// the generator.
func openLoop(shoot func() result, rate float64, d time.Duration) ([]result, time.Duration) {
	total := int(d.Seconds() * rate)
	results := make([]result, total)
	var wg sync.WaitGroup
	t0 := time.Now()
	// Pace against the wall clock, not a per-request ticker: above
	// ~1k req/s a tick per request loses to timer granularity, so each
	// wake-up fires however many requests the schedule now calls for.
	for fired := 0; fired < total; {
		due := int(time.Since(t0).Seconds() * rate)
		if due > total {
			due = total
		}
		for ; fired < due; fired++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = shoot()
			}(fired)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	return results, time.Since(t0)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(w io.Writer, mode, url string, results []result, elapsed time.Duration, benchName, outFile, note string, multi bool, snap cluster.Snapshot, extra map[string]float64) {
	// Latencies are grouped per HTTP status, each sorted for
	// percentiles: a 429's latency says how fast backpressure answers
	// and a 504's how long the deadline held the client, and folding
	// either into the success distribution would misstate both.
	byStatus := map[int][]time.Duration{}
	var ok []time.Duration
	transportErrs := 0
	for _, r := range results {
		if r.err != nil {
			transportErrs++
			continue
		}
		byStatus[r.status] = append(byStatus[r.status], r.latency)
		if r.status >= 200 && r.status < 300 {
			ok = append(ok, r.latency)
		}
	}
	for _, ds := range byStatus {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	var sum time.Duration
	for _, d := range ok {
		sum += d
	}
	mean := time.Duration(0)
	if len(ok) > 0 {
		mean = sum / time.Duration(len(ok))
	}
	p50 := percentile(ok, 0.50)
	p95 := percentile(ok, 0.95)
	p99 := percentile(ok, 0.99)
	rps := float64(len(ok)) / elapsed.Seconds()

	fmt.Fprintf(w, "coggload: %s against %s\n", mode, url)
	fmt.Fprintf(w, "  completed   %d ok in %v (%.1f req/s)\n", len(ok), elapsed.Round(time.Millisecond), rps)
	fmt.Fprintf(w, "  latency     p50 %v  p95 %v  p99 %v  mean %v  max %v\n",
		p50, p95, p99, mean, percentile(ok, 1.0))
	for _, s := range sortedStatuses(byStatus) {
		ds := byStatus[s]
		fmt.Fprintf(w, "  status %d  ×%-5d p50 %v  p95 %v  p99 %v\n",
			s, len(ds), percentile(ds, 0.50), percentile(ds, 0.95), percentile(ds, 0.99))
	}
	if transportErrs > 0 {
		fmt.Fprintf(w, "  transport-errors ×%d\n", transportErrs)
	}

	// Per-replica breakdown of successful answers: in a fleet run this
	// shows routing (who served what) and per-replica latency, so one
	// browned-out replica is visible instead of averaged away.
	byReplica := map[string][]time.Duration{}
	for _, r := range results {
		if r.err == nil && r.replica != "" && r.status >= 200 && r.status < 300 {
			byReplica[r.replica] = append(byReplica[r.replica], r.latency)
		}
	}
	for _, ds := range byReplica {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	if multi || len(byReplica) > 1 {
		for _, name := range sortedReplicas(byReplica) {
			ds := byReplica[name]
			fmt.Fprintf(w, "  replica %-21s ×%-5d p50 %v  p95 %v  p99 %v\n",
				name, len(ds), percentile(ds, 0.50), percentile(ds, 0.95), percentile(ds, 0.99))
		}
	}
	if snap.Retries+snap.Hedges+snap.Failovers+snap.Degraded > 0 {
		fmt.Fprintf(w, "  policy      %d retries, %d hedges (%d won), %d failovers, %d degraded\n",
			snap.Retries, snap.Hedges, snap.HedgeWins, snap.Failovers, snap.Degraded)
	}

	if len(extra) > 0 {
		for _, k := range sortedKeys(extra) {
			fmt.Fprintf(w, "  blob        %s = %g\n", k, extra[k])
		}
	}
	if outFile != "" {
		if err := writeSummary(outFile, benchName, note, ok, p50, p95, p99, rps, byStatus, byReplica, snap, transportErrs, extra); err != nil {
			fatal(err)
		}
	}

	failures := transportErrs
	for s, ds := range byStatus {
		if (s < 200 || s >= 300) && s != http.StatusTooManyRequests {
			failures += len(ds)
		}
	}
	if failures > 0 || len(ok) == 0 {
		fmt.Fprintf(os.Stderr, "coggload: %d failed requests\n", failures)
		os.Exit(1)
	}
}

// benchFile mirrors cmd/benchgate's File so the summary feeds the same
// regression gate as the micro-benchmarks.
type benchFile struct {
	Note       string                `json:"note,omitempty"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func writeSummary(path, name, note string, ok []time.Duration, p50, p95, p99 time.Duration, rps float64, byStatus map[int][]time.Duration, byReplica map[string][]time.Duration, snap cluster.Snapshot, transportErrs int, extra map[string]float64) error {
	rejected := len(byStatus[http.StatusTooManyRequests])
	failed := transportErrs
	for s, ds := range byStatus {
		if (s < 200 || s >= 300) && s != http.StatusTooManyRequests {
			failed += len(ds)
		}
	}
	metrics := map[string]float64{
		"p95-ns":   float64(p95.Nanoseconds()),
		"p99-ns":   float64(p99.Nanoseconds()),
		"req/s":    rps,
		"ok":       float64(len(ok)),
		"rejected": float64(rejected),
		"failed":   float64(failed),
	}
	// Per-status counts and latency percentiles, so the gate can watch
	// e.g. the 429 answer time or a creeping 5xx rate, not just the
	// aggregate success distribution.
	for s, ds := range byStatus {
		prefix := fmt.Sprintf("status-%d-", s)
		metrics[prefix+"count"] = float64(len(ds))
		metrics[prefix+"p50-ns"] = float64(percentile(ds, 0.50).Nanoseconds())
		metrics[prefix+"p95-ns"] = float64(percentile(ds, 0.95).Nanoseconds())
		metrics[prefix+"p99-ns"] = float64(percentile(ds, 0.99).Nanoseconds())
	}
	// Per-replica counts and latency percentiles, so the gate can catch
	// one replica serving slow (or nothing) while the fleet aggregate
	// still looks healthy.
	for name, ds := range byReplica {
		prefix := "replica-" + name + "-"
		metrics[prefix+"count"] = float64(len(ds))
		metrics[prefix+"p50-ns"] = float64(percentile(ds, 0.50).Nanoseconds())
		metrics[prefix+"p95-ns"] = float64(percentile(ds, 0.95).Nanoseconds())
		metrics[prefix+"p99-ns"] = float64(percentile(ds, 0.99).Nanoseconds())
	}
	for k, v := range extra {
		metrics[k] = v
	}
	if snap.Attempts > 0 {
		metrics["policy-retries"] = float64(snap.Retries)
		metrics["policy-hedges"] = float64(snap.Hedges)
		metrics["policy-hedge-wins"] = float64(snap.HedgeWins)
		metrics["policy-failovers"] = float64(snap.Failovers)
		metrics["policy-degraded"] = float64(snap.Degraded)
	}
	f := benchFile{
		Note: note,
		Benchmarks: map[string]benchEntry{
			name: {
				NsPerOp: float64(p50.Nanoseconds()),
				Metrics: metrics,
			},
		},
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedStatuses(m map[int][]time.Duration) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func sortedReplicas(m map[string][]time.Duration) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// loadSynthCorpus reads every *.if file under dir (an ifsynth -out
// corpus) in name order, so the workers cycle through the whole
// grammar's worth of program shapes instead of hammering one body.
func loadSynthCorpus(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.if"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("-synth %s: no *.if corpus files", dir)
	}
	sort.Strings(paths)
	sources := make([]string, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sources[i] = string(b)
	}
	return sources, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coggload:", err)
	os.Exit(1)
}

// scrapeFleetMetrics pulls the series matching the given name prefixes
// out of each target's /metrics exposition. -report-blob uses it for
// the artifact-tier counters (how much of the fleet's work came warm
// from the shared tier versus built from source); -report-slo for the
// burn-rate gauges and breach counters. With one target the series keep
// their bare names ("blob-hits-http", "slo-burn-rate-compile-1m"); in a
// fleet run each key is prefixed by the replica's host:port so
// benchgate can watch one replica specifically.
func scrapeFleetMetrics(targets []string, multi bool, prefixes ...string) map[string]float64 {
	out := map[string]float64{}
	for _, target := range targets {
		series, err := scrapeTarget(target, prefixes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coggload: scraping %s/metrics: %v\n", target, err)
			continue
		}
		prefix := ""
		if multi {
			if u, err := neturl.Parse(target); err == nil {
				prefix = u.Host + "-"
			}
		}
		for k, v := range series {
			out[prefix+k] = v
		}
	}
	return out
}

// mergeMetrics folds src into dst, summing on key collisions.
func mergeMetrics(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// scrapeTarget parses the matching sample lines of one Prometheus text
// exposition. "cogg_blob_hits_total{backend="fs"} 3" becomes
// blob-hits-fs=3; histogram bucket series (which may carry exemplar
// suffixes) are skipped.
func scrapeTarget(target string, prefixes []string) (map[string]float64, error) {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		matched := false
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, valText := line[:sp], line[sp+1:]
		if strings.Contains(name, "_bucket{") || strings.Contains(name, "_bucket ") {
			continue
		}
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			continue
		}
		series[metricKey(name)] += v
	}
	return series, sc.Err()
}

// metricKey flattens one exposition series name into a benchgate
// metric key: prefix and _total stripped, label values folded in.
func metricKey(name string) string {
	labels := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		for _, pair := range strings.Split(strings.Trim(name[i:], "{}"), ",") {
			if _, v, ok := strings.Cut(pair, "="); ok {
				labels += "-" + strings.Trim(v, `"`)
			}
		}
		name = name[:i]
	}
	name = strings.TrimSuffix(name, "_total")
	name = strings.TrimPrefix(name, "cogg_")
	return strings.ReplaceAll(name, "_", "-") + labels
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
