// Command perfbench is cogg's serving benchmark. It starts cogd
// replicas (server.New) on loopback listeners inside its own process,
// drives them with seeded inputs, prints every end-to-end metric by
// name and unit, and checks every answer against the library path and,
// for Pascal, against the simulator-run hand-written generator.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload if-serial|pascal-fresh|pascal-fleet-repeat \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the traced
// run: it replays the workload's inputs through each layer's public
// functions and reports the per-layer budget instead (see trace.go).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when the run fails or any output check fails. See README.md for the
// workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"cogg/internal/cluster"
)

// workload is one traffic mix.
type workload struct {
	replicas int
	clients  int
	rate     float64 // requests per second; 0 means closed loop
	// windows is how many equal windows the measured phase is split
	// into (see windowed): as many as keep about 1,000 requests, so ten
	// beyond the p99, in each window of a run_seconds run.
	windows int
	// plan builds the inputs and the request stream from the seed. n
	// is how many measured requests an open loop will send.
	plan func(lib *library, seed int64, n int) (*plan, error)
}

var workloads = map[string]workload{
	// One client, one replica, raw IF: what the daemon adds around the
	// code generator.
	"if-serial": {replicas: 1, clients: 1, windows: 10, plan: planIFSerial},
	// Distinct Pascal deck programs at a fixed rate: the whole pipeline
	// plus the blob write path, with arrivals queueing.
	"pascal-fresh": {replicas: 1, clients: 2, rate: 200, windows: 4, plan: planPascalFresh},
	// A skewed repeat draw across a peered two-replica fleet: the
	// cluster hop, blob reads, and encoding of large cached answers.
	"pascal-fleet-repeat": {replicas: 2, clients: 2, windows: 10, plan: planFleetRepeat},
}

// Run shape, fixed across commits.
const (
	setupReps   = 15   // fleet start-ups per run; setup_s is their median
	warmupReqs  = 200  // untimed requests before measuring (the whole pool for repeat traffic)
	ifCorpusN   = 1000 // random-walk IF programs (witnesses come on top)
	fleetPoolN  = 192  // distinct programs in the repeat pool (> 64 memory-tier entries)
	replayLimit = 200  // inputs the traced run replays through the layers
)

// plan is a workload's inputs and its request stream: order[k] is the
// input the k-th request sends.
type plan struct {
	inputs []input
	order  []int
	warm   int // leading requests of order sent untimed before measuring
	pos    int
}

// next returns a schedule for one phase of requests, continuing the
// stream where the previous phase stopped; done reports how many the
// phase sent.
func (p *plan) next() (schedule func(seq int) int, done func(sent int)) {
	start := p.pos
	return func(seq int) int { return p.order[(start+seq)%len(p.order)] },
		func(sent int) { p.pos = start + sent }
}

func planIFSerial(lib *library, seed int64, _ int) (*plan, error) {
	inputs, err := lib.ifCorpus(seed, ifCorpusN)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	var order []int
	for len(order) < 1<<16 {
		order = append(order, r.Perm(len(inputs))...)
	}
	return &plan{inputs: inputs, order: order, warm: warmupReqs}, nil
}

func planPascalFresh(_ *library, seed int64, n int) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	inputs := pascalPrograms(r, fmt.Sprintf("s%d-fresh", seed), warmupReqs+n+replayLimit)
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	return &plan{inputs: inputs, order: order, warm: warmupReqs}, nil
}

func planFleetRepeat(_ *library, seed int64, _ int) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	inputs := pascalPrograms(r, fmt.Sprintf("s%d-pool", seed), fleetPoolN)
	// The warm-up sends every pool program once, so the whole pool is
	// served and checked; the measured stream is the skewed draw.
	order := append(r.Perm(len(inputs)), skewedDraw(r, len(inputs), 1<<18)...)
	return &plan{inputs: inputs, order: order, warm: len(inputs)}, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where the traced run writes its spans; "" keeps them in memory only
}

// bench is one run's live state.
type bench struct {
	cfg    config
	wl     workload
	lib    *library
	plan   *plan
	fleet  *fleet
	setupS float64
	hc     *http.Client
	cl     *cluster.Client
	send   sender
	ans    *answers
	out    io.Writer
}

func main() {
	cfg := config{spansDir: ".bench_build/spans"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "if-serial, pascal-fresh, or pascal-fleet-repeat")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; progress and
// the human-readable report go to out.
func run(cfg config, out io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (if-serial, pascal-fresh, pascal-fleet-repeat)", cfg.workload)
	}
	t0 := time.Now()
	b := &bench{cfg: cfg, wl: wl, out: out, ans: newAnswers()}
	lib, err := newLibrary()
	if err != nil {
		return nil, err
	}
	b.lib = lib
	if b.plan, err = wl.plan(lib, cfg.seed, int(wl.rate*cfg.seconds)); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s seed %d: %d distinct inputs, built in %v\n",
		cfg.workload, cfg.seed, len(b.plan.inputs), time.Since(t0).Round(time.Millisecond))
	if err := b.start(); err != nil {
		return nil, err
	}
	defer func() {
		t := time.Now()
		b.stop()
		fmt.Fprintf(out, "replicas stopped in %v\n", time.Since(t).Round(time.Millisecond))
	}()

	res := &result{Metrics: map[string]metric{}}
	var phases []sample
	if cfg.trace {
		phases, err = b.traced(res)
		if err != nil {
			return nil, err
		}
	} else {
		ss, st := b.measure(time.Duration(cfg.seconds * float64(time.Second)))
		phases = ss
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		res.Metrics["latency_p50_ms"] = metric{finite(st.p50), "ms"}
		res.Metrics["latency_p99_ms"] = metric{finite(st.p99), "ms"}
		res.Metrics["throughput_rps"] = metric{st.throughput, "1/s"}
		res.Metrics["within_limit_ratio"] = metric{st.within, "ratio"}
		res.Metrics["setup_s"] = metric{b.setupS, "s"}
		res.Metrics["retained_heap_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
		fmt.Fprintf(out, "latency_p50_ms      %10.4f ms    (n=%d, median of %d windows)\n", st.p50, st.attempted, b.wl.windows)
		fmt.Fprintf(out, "latency_p99_ms      %10.4f ms    (n=%d, median of %d windows)\n", st.p99, st.attempted, b.wl.windows)
		fmt.Fprintf(out, "throughput_rps      %10.2f 1/s\n", st.throughput)
		fmt.Fprintf(out, "within_limit_ratio  %10.4f       (answered OK within %v, of %d attempted)\n", st.within, latencyLimit, st.attempted)
		fmt.Fprintf(out, "setup_s             %10.4f s     (median of %d start-ups)\n", b.setupS, setupReps)
		fmt.Fprintf(out, "retained_heap_mb    %10.2f MB\n", float64(mem.HeapAlloc)/1e6)
	}

	t1 := time.Now()
	cr := b.lib.checkOutputs(b.plan.inputs, b.ans)
	fmt.Fprintf(out, "output check took %v\n", time.Since(t1).Round(time.Millisecond))
	if !cfg.trace {
		res.Metrics["code_bytes"] = metric{float64(cr.codeBytes), "bytes"}
		fmt.Fprintf(out, "code_bytes          %10d bytes (%d distinct inputs)\n", cr.codeBytes, cr.checked)
	}
	res.Attempted = len(phases)
	for _, s := range phases {
		if !s.ok {
			res.Failed++
		}
	}
	// An answer that disagreed with an earlier answer to the same input
	// already failed its request; one that disagrees with the library
	// path fails its input's first request.
	res.Failed += len(cr.failures)
	res.Correct = len(cr.failures) == 0 && b.ans.mismatch == 0
	fmt.Fprintf(out, "failed_ratio        %10.4f       (%d of %d attempted; %d answers disagreed with an earlier one)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, b.ans.mismatch)
	fmt.Fprintf(out, "output check: %d distinct inputs, %d failures\n", cr.checked, len(cr.failures))
	for i, f := range cr.failures {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more\n", len(cr.failures)-10)
			break
		}
		fmt.Fprintln(out, "  "+f)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request was attempted")
	}
	return res, nil
}

// finite maps a percentile that landed on a failed request (+Inf) to
// the largest float JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// start brings the replicas up, timing set-up, and builds the client.
func (b *bench) start() error {
	f, setup, err := setupFleet(b.wl.replicas, setupReps)
	if err != nil {
		return err
	}
	b.fleet, b.setupS = f, setup
	b.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: b.wl.clients,
		MaxConnsPerHost:     b.wl.clients,
	}}
	if b.wl.replicas == 1 {
		b.send = directSender(b.hc, f.reps[0].url)
		return nil
	}
	targets := make([]string, len(f.reps))
	for i, r := range f.reps {
		targets[i] = r.url
	}
	b.cl, err = cluster.New(cluster.Options{Targets: targets, MaxRetries: 1, HTTPClient: b.hc})
	if err != nil {
		return err
	}
	b.send = clusterSender(b.cl)
	return nil
}

func (b *bench) stop() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.hc != nil {
		b.hc.CloseIdleConnections()
	}
	if b.fleet != nil {
		b.fleet.stop()
	}
}

// phase sends one phase of the workload's traffic for dur and returns
// its requests and its start.
func (b *bench) phase(dur time.Duration, onStart func(req int) func()) ([]sample, time.Time) {
	d := &traffic{send: b.send, inputs: b.plan.inputs, ans: b.ans, onStart: onStart}
	schedule, done := b.plan.next()
	t0 := time.Now()
	var ss []sample
	if b.wl.rate > 0 {
		ss = d.openLoop(b.wl.clients, b.wl.rate, dur, schedule)
	} else {
		ss = d.closedLoop(b.wl.clients, dur, schedule)
	}
	done(len(ss))
	return ss, t0
}

// warmup sends the plan's untimed leading requests one at a time, so
// the session pools, connection pools and (for repeat traffic) the deck
// cache are warm when measuring starts.
func (b *bench) warmup() []sample {
	d := &traffic{send: b.send, inputs: b.plan.inputs, ans: b.ans}
	schedule, done := b.plan.next()
	ss := make([]sample, b.plan.warm)
	for i := range ss {
		ss[i] = d.shoot(i, schedule(i), time.Now())
	}
	done(len(ss))
	return ss
}

// measure is the untraced run: warm-up, then one measured phase whose
// figures are medians over its windows (see windowed). It
// returns every attempted request, warm-up included, for the failure
// count, and the measured phase's figures.
func (b *bench) measure(dur time.Duration) ([]sample, stats) {
	warm := b.warmup()
	ss, t0 := b.phase(dur, nil)
	st := windowed(ss, t0, dur, b.wl.windows)
	fmt.Fprintf(b.out, "measured %v in %d windows: %v\n", dur, b.wl.windows, st)
	return append(warm, ss...), st
}
