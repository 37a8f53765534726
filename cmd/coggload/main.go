// Command coggload is the chaos driver for the cogd compilation daemon:
// a closed loop of workers issuing compile requests back-to-back,
// through the cluster policy engine (internal/cluster) against one
// daemon or a whole fleet, that exits nonzero if any request failed.
// CI SIGKILLs a replica mid-run and reads that exit status as the
// verdict on whether the fleet lost a request. coggload takes no
// latency figures; perfbench is the served-latency measurement.
//
// Usage:
//
//	coggload [flags]
//
//	-url URL      daemon base URL (default http://127.0.0.1:8470)
//	-targets URLS comma-separated replica base URLs: drive a whole fleet
//	              through the cluster policy engine, spreading load
//	              across replicas; overrides -url
//	-retries N    retryable-answer (transport error, 429, 5xx) retries
//	              per request through the policy engine (default 0: a
//	              failure is a failure)
//	-lang L       request language: pascal (default) or if
//	-synth DIR    cycle request bodies through the *.if corpus files in
//	              DIR (as written by ifsynth -out), implying -lang if:
//	              load with grammar-wide variety instead of one fixed
//	              program
//	-spec NAME    spec the requests select: an embedded name (the list
//	              is specs.Lookup's) or the daemon default's name;
//	              empty selects the default
//	-n N          total requests (default 500)
//	-c N          concurrent workers (default 8)
//
// It prints the completed count and rate, the count per HTTP status,
// transport errors, successful answers per replica and the policy
// engine's retry/failover counters. Exit status is nonzero when any
// request failed: a final answer outside 2xx (429 included) or a
// transport error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
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
	status  int
	replica string
	err     error
}

// succeeded reports a 2xx final answer.
func (r result) succeeded() bool {
	return r.err == nil && r.status >= 200 && r.status < 300
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run drives one load run and returns the exit status: 0 when every
// request succeeded (or for -h), 1 otherwise, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coggload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8470", "daemon base URL")
	targetsFlag := fs.String("targets", "", "comma-separated replica base URLs (overrides -url)")
	retries := fs.Int("retries", 0, "retryable-answer retries per request")
	lang := fs.String("lang", "pascal", "request language: pascal or if")
	synthDir := fs.String("synth", "", "directory of *.if corpus files to cycle through (implies -lang if)")
	spec := fs.String("spec", "", "spec the requests select")
	n := fs.Int("n", 500, "total requests")
	c := fs.Int("c", 8, "concurrent workers")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "coggload:", err)
		return 1
	}

	sources := []string{defaultPascal}
	switch {
	case *synthDir != "":
		*lang = "if"
		var err error
		if sources, err = loadSynthCorpus(*synthDir); err != nil {
			return fail(err)
		}
	case *lang == "if":
		sources = []string{defaultIF}
	case *lang != "pascal":
		return fail(fmt.Errorf("unknown -lang %q", *lang))
	}
	bodies := make([][]byte, len(sources))
	for i, src := range sources {
		body, err := json.Marshal(map[string]any{
			"name":   "load." + *lang,
			"lang":   *lang,
			"source": src,
			"spec":   *spec,
		})
		if err != nil {
			return fail(err)
		}
		bodies[i] = body
	}
	targets := []string{*url}
	if *targetsFlag != "" {
		targets = nil
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
	}
	multi := len(targets) > 1
	// All traffic flows through the cluster policy engine, the same
	// retry/breaker code as cmd/cogdfront. With one target and zero
	// retries it is a pass-through: no /readyz probing, and no breaker,
	// so 5xx answers are reported as the daemon sent them instead of as
	// synthetic "no admissible replica" errors.
	probe := 250 * time.Millisecond
	breakerThreshold := 0 // the cluster default
	if !multi && *retries == 0 {
		probe, breakerThreshold = -1, math.MaxInt32
	}
	cl, err := cluster.New(cluster.Options{
		Targets:          targets,
		MaxRetries:       *retries,
		HedgeAfter:       -1,
		ProbeInterval:    probe,
		BreakerThreshold: breakerThreshold,
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * *c,
			MaxIdleConnsPerHost: 4 * *c,
		}},
	})
	if err != nil {
		return fail(err)
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
		res, err := cl.Do(context.Background(), "/v1/compile", key, body)
		if err != nil {
			return result{err: err}
		}
		return result{status: res.Status, replica: res.Replica}
	}
	results, elapsed := closedLoop(shoot, *n, *c)

	fmt.Fprintf(stdout, "coggload: closed loop, %d workers, %d requests against %s\n",
		*c, *n, strings.Join(targets, ", "))
	ok, failed := report(stdout, results, elapsed, multi, cl.Snapshot())
	if failed > 0 || ok == 0 {
		fmt.Fprintf(stderr, "coggload: %d failed requests\n", failed)
		return 1
	}
	return 0
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

// tally counts a run's requests: ok the 2xx answers, failed every
// other final answer and every transport error. A 429 is a failure
// like any other: it is the answer that survived the retries, so the
// request was refused.
func tally(results []result) (ok, failed int) {
	for _, r := range results {
		if r.succeeded() {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// report prints the run's counts and returns its tally.
func report(w io.Writer, results []result, elapsed time.Duration, multi bool, snap cluster.Snapshot) (ok, failed int) {
	ok, failed = tally(results)
	byStatus := map[int]int{}
	byReplica := map[string]int{}
	transportErrs := 0
	for _, r := range results {
		if r.err != nil {
			transportErrs++
			continue
		}
		byStatus[r.status]++
		if r.succeeded() && r.replica != "" {
			byReplica[r.replica]++
		}
	}
	fmt.Fprintf(w, "  completed   %d ok in %v (%.1f req/s)\n",
		ok, elapsed.Round(time.Millisecond), float64(ok)/elapsed.Seconds())
	for _, s := range sortedKeys(byStatus) {
		fmt.Fprintf(w, "  status %d  ×%d\n", s, byStatus[s])
	}
	if transportErrs > 0 {
		fmt.Fprintf(w, "  transport-errors ×%d\n", transportErrs)
	}
	// Who served what: one replica answering nothing is visible here
	// instead of hidden in the fleet total.
	if multi || len(byReplica) > 1 {
		for _, name := range sortedKeys(byReplica) {
			fmt.Fprintf(w, "  replica %-21s ×%d\n", name, byReplica[name])
		}
	}
	if snap.Retries+snap.Failovers+snap.Degraded > 0 {
		fmt.Fprintf(w, "  policy      %d retries, %d failovers, %d degraded\n",
			snap.Retries, snap.Failovers, snap.Degraded)
	}
	return ok, failed
}

func sortedKeys[K int | string](m map[K]int) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
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
