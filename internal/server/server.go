// Package server is cogd's compile-as-a-service layer: a long-running
// HTTP/JSON daemon over the batch compilation service, turning the
// paper's cheap table-driven translation into something a fleet of
// clients can call without paying process startup or table construction
// per request.
//
// The daemon keeps one decoded table module per specification through
// the batch service's two-tier cache, holds a bounded pool of reusable
// translation sessions per module so the steady-state raw-IF path keeps
// the zero-allocation emission loop of package codegen, coalesces
// concurrent requests into micro-batches over the batch worker pool,
// and applies admission control: a bounded intake queue (429 when
// full), per-request deadlines (504 past the deadline), and a graceful
// drain that completes in-flight requests while rejecting new ones
// (503). Unit failures map the batch failure taxonomy onto HTTP status
// codes — see StatusFor.
//
// Endpoints:
//
//	POST /v1/compile   one unit (Pascal or raw prefix-IF) -> listing JSON
//	POST /v1/batch     many units as one batch, results in input order
//	POST /v1/grammar/session  open a grammar-walk cursor over a spec's
//	                   SLR tables; returns the legal opening symbols
//	POST /v1/grammar/next     advance the cursor on one symbol; returns
//	                   fired productions and the new legal-next set
//	GET  /healthz      liveness: "ok" as long as the process serves HTTP
//	GET  /readyz       readiness: "ready" while accepting work; 503 with
//	                   Retry-After once draining starts
//	GET  /varz         server, pool, and batch statistics as JSON
//	GET  /metrics      Prometheus text exposition (see Registry)
//	GET  /v1/traces    the last traces' span trees as JSON, newest first
//	GET  /debug/vars   the expvar registry (includes the batch counters)
//	GET  /debug/pprof  profiling handlers, when Options.EnablePprof
//
// Every request is traced: phase spans (queue-wait, then the pipeline's
// frontend/shape/parse-reduce/regalloc/emit/assemble) collect under a
// per-request trace whose ID comes from the client's X-Trace-Id header
// when sent, and is returned in the response header and body either
// way. The last TraceRing traces are browsable at /v1/traces; requests
// slower than SlowThreshold additionally log their span tree plus the
// failure mode.
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/codegen"
	"cogg/internal/driver"
	"cogg/internal/faultinject"
	"cogg/internal/ifopt"
	"cogg/internal/obs"
	"cogg/internal/oracle"
	"cogg/internal/rt370"
	"cogg/internal/shaper"
	"cogg/specs"
)

// Options configure a Server.
type Options struct {
	// SpecName/SpecSrc are the default specification; empty means the
	// embedded amdahl470. Requests may select another embedded spec by
	// name, never a file path.
	SpecName string
	SpecSrc  string
	// Risc applies the risc32 target configuration to the default spec.
	Risc bool

	// Workers bounds the batch worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheDir is the on-disk table-module cache; empty disables the
	// disk blob tier (the in-memory blob tier still serves).
	CacheDir string
	// BlobPeers are base URLs of fleet peers (replicas or fronts)
	// serving the artifact API; when set, a remote tier joins the blob
	// store beneath the batch service, so a cold start warm-fetches a
	// neighbor's already-built module instead of constructing tables.
	// The daemon's own /v1/artifacts endpoint serves only its local
	// tiers, never the peers — two replicas pointing at each other must
	// not bounce a missing key forever.
	BlobPeers []string
	// BlobMemEntries/BlobMemBytes bound the in-memory blob tier;
	// <= 0 means the blob package defaults (64 entries / 256 MiB).
	BlobMemEntries int
	BlobMemBytes   int64
	// BlobAttemptTimeout bounds one artifact fetch attempt against a
	// peer; <= 0 means 2s. Tests and latency-sensitive deployments
	// shrink it — the fetch races a ~20ms local table construction.
	BlobAttemptTimeout time.Duration
	// Logf receives operational lines (blob warm fetches); nil is
	// silent.
	Logf func(format string, args ...any)
	// PoolSize caps the reusable-session free list per module;
	// <= 0 means 2x the worker pool.
	PoolSize int

	// QueueBound caps requests waiting for a micro-batch slot; a full
	// queue answers 429. <= 0 means 256.
	QueueBound int
	// BatchWindow is how long the collector waits to coalesce more
	// requests into a micro-batch; <= 0 means 200µs.
	BatchWindow time.Duration
	// BatchMax caps units per micro-batch; <= 0 means 64.
	BatchMax int

	// DefaultDeadline bounds a request that sends no deadline_ms, and
	// is also the batch service's per-unit wall-time limit; <= 0 means
	// 15s.
	DefaultDeadline time.Duration
	// MaxStackDepth and MaxCodeBytes bound each translation's parse
	// stack and code buffer (codegen.Config limits, answered as 413);
	// <= 0 keeps the codegen defaults.
	MaxStackDepth int
	MaxCodeBytes  int
	// MaxBodyBytes caps a request body; <= 0 means 8 MiB.
	MaxBodyBytes int64

	// GrammarTTL is how long an idle grammar-walk session survives
	// before the background sweeper reclaims it; <= 0 means 5 minutes.
	// The sweeper runs every GrammarTTL/10 (at least every 10ms), so an
	// abandoned cursor is reclaimed without waiting for table traffic.
	GrammarTTL time.Duration

	// StatsName is the expvar name the batch counters publish under;
	// empty means "cogd.batch".
	StatsName string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// Registry receives the daemon's metrics (and the batch service's,
	// and each spec's code generation instruments); nil builds a fresh
	// one. Exposed at /metrics in Prometheus text format.
	Registry *obs.Registry
	// TraceRing is how many finished request traces /v1/traces retains;
	// <= 0 means 64.
	TraceRing int
	// SlowThreshold logs the full span tree of any request slower than
	// this; 0 disables slow-request logging.
	SlowThreshold time.Duration
	// SlowLog is where slow-request span trees go; nil means stderr.
	SlowLog io.Writer
	// Logger, when set, routes slow-request reports through structured
	// logging (with trace_id attributes) instead of SlowLog.
	Logger *slog.Logger

	// Process names this process in exported trace fragments
	// ("cogd@:8481"); empty means "cogd". SetProcess can refine it once
	// the listen address is known.
	Process string

	// SLOTarget is the request-latency objective: requests slower than
	// this burn error budget. <= 0 means 50ms.
	SLOTarget time.Duration
	// SLOObjective is the target good-request fraction; out of (0,1)
	// means 0.99.
	SLOObjective float64
}

func (o *Options) fill() {
	if o.SpecName == "" {
		o.SpecName, o.SpecSrc = "amdahl470.cogg", specs.Amdahl470
	}
	if o.PoolSize <= 0 {
		w := o.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		o.PoolSize = 2 * w
	}
	if o.QueueBound <= 0 {
		o.QueueBound = 256
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 200 * time.Microsecond
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 64
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 15 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.GrammarTTL <= 0 {
		o.GrammarTTL = grammarTTL
	}
	if o.StatsName == "" {
		o.StatsName = "cogd.batch"
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.TraceRing <= 0 {
		o.TraceRing = 64
	}
	if o.SlowLog == nil {
		o.SlowLog = os.Stderr
	}
	if o.Process == "" {
		o.Process = "cogd"
	}
}

// Server is the daemon. Build one with New, expose Handler on an
// http.Server, and stop it with Drain then Close.
type Server struct {
	opts  Options
	svc   *batch.Service
	mux   *http.ServeMux
	start time.Time

	// targets maps spec key -> lazily built module target + session
	// pool. The default spec is built eagerly by New, so a 200 from
	// /healthz means the tables are ready.
	tmu     sync.Mutex
	targets map[string]*modTarget

	queue         chan *pending
	stop          chan struct{}
	stopOnce      sync.Once
	collectorDone chan struct{}
	sweeperDone   chan struct{}

	// admitted counts units admitted and not yet answered — the real
	// backpressure bound. The queue channel never blocks because its
	// capacity equals the admission bound.
	admitted atomic.Int64

	gate    drainGate
	stats   serverStats
	grammar grammarTable

	// artifacts is the store behind GET/HEAD/PUT /v1/artifacts/ — the
	// LOCAL blob tiers only (memory + disk). blobStore adds the remote
	// tier and sits beneath the batch service and the deck cache.
	artifacts  blob.Store
	blobStore  blob.Store
	blobCounts map[string]*blob.Counters

	reg  *obs.Registry
	ring *obs.Ring
	slo  *obs.SLO

	// process names this daemon in trace fragments; an atomic because
	// cmd/cogd refines it with the bound port after New has returned.
	process atomic.Value // string
}

// SetProcess renames the daemon's trace-fragment process label, for
// callers that only learn the listen address after construction.
func (s *Server) SetProcess(p string) {
	if p != "" {
		s.process.Store(p)
	}
}

func (s *Server) processName() string {
	p, _ := s.process.Load().(string)
	return p
}

// modTarget is one specification's serving state: the instantiated
// generator target and its session pool. key is the spec's module blob
// key — the derivation root compiled-deck cache keys hang off.
type modTarget struct {
	specName string
	key      string
	tgt      *driver.Target
	pool     *sessionPool
	oracle   *oracle.Oracle
}

// New builds the daemon, constructing (or cache-loading) the default
// specification's tables eagerly and starting the micro-batch
// collector.
func New(opts Options) (*Server, error) {
	opts.fill()
	// The blob tiers, fastest first. Each backend is wrapped with its
	// own counters so /metrics tells a memory hit from a disk hit from
	// a fleet warm fetch.
	counts := map[string]*blob.Counters{}
	wrap := func(backend string, st blob.Store) blob.Store {
		c := &blob.Counters{}
		c.Register(opts.Registry, backend)
		counts[backend] = c
		return blob.WithCounters(st, c)
	}
	memTier := wrap("mem", blob.NewMem(opts.BlobMemEntries, opts.BlobMemBytes))
	var fsTier, remoteTier blob.Store
	if opts.CacheDir != "" {
		fsTier = wrap("fs", blob.NewFS(opts.CacheDir))
	}
	if len(opts.BlobPeers) > 0 {
		remoteTier = wrap("http", blob.NewRemote(blob.RemoteOptions{
			Peers:          opts.BlobPeers,
			AttemptTimeout: opts.BlobAttemptTimeout,
			Logf:           opts.Logf,
		}))
	}
	local := blob.NewTiered(memTier, fsTier)
	full := blob.NewTiered(memTier, fsTier, remoteTier)

	s := &Server{
		opts: opts,
		svc: batch.New(batch.Options{
			Workers:     opts.Workers,
			CacheDir:    opts.CacheDir,
			Blob:        full,
			UnitTimeout: opts.DefaultDeadline,
		}),
		artifacts:     local,
		blobStore:     full,
		blobCounts:    counts,
		start:         time.Now(),
		targets:       map[string]*modTarget{},
		queue:         make(chan *pending, opts.QueueBound),
		stop:          make(chan struct{}),
		collectorDone: make(chan struct{}),
		sweeperDone:   make(chan struct{}),
		reg:           opts.Registry,
		ring:          obs.NewRing(opts.TraceRing),
	}
	s.grammar.ttl = opts.GrammarTTL
	s.process.Store(opts.Process)
	s.slo = obs.NewSLO(opts.Registry, obs.SLOOptions{
		Name:      "compile",
		Threshold: opts.SLOTarget,
		Objective: opts.SLOObjective,
	})
	if err := s.svc.Stats.Publish(opts.StatsName); err != nil {
		return nil, err
	}
	s.svc.RegisterMetrics(s.reg)
	s.registerServerMetrics()
	s.registerGrammarMetrics()
	if _, err := s.target(""); err != nil {
		return nil, err
	}
	s.buildMux()
	go s.collect()
	go s.grammarSweeper()
	return s, nil
}

// Registry exposes the daemon's metric registry (tests scrape it
// without HTTP; embedding servers merge it into their own exposition).
func (s *Server) Registry() *obs.Registry { return s.reg }

// registerServerMetrics bridges the daemon-level counters into the
// registry, read from the existing atomics at exposition time.
func (s *Server) registerServerMetrics() {
	outcomes := "Requests by admission outcome (accepted counts every admitted unit; the others are terminal outcomes)."
	for _, o := range []struct {
		name string
		v    func() int64
	}{
		{"accepted", s.stats.Accepted.Load},
		{"completed", s.stats.Completed.Load},
		{"failed", s.stats.Failed.Load},
		{"timed_out", s.stats.TimedOut.Load},
		{"rejected_queue_full", s.stats.RejectedQueueFull.Load},
		{"rejected_draining", s.stats.RejectedDraining.Load},
	} {
		s.reg.CounterFunc("cogd_requests_total", outcomes, obs.L("outcome", o.name), o.v)
	}
	s.reg.CounterFunc("cogd_microbatches_total",
		"Micro-batches dispatched by the collector.", "", s.stats.Batches.Load)
	s.reg.CounterFunc("cogd_microbatch_units_total",
		"Units dispatched inside micro-batches.", "", s.stats.BatchedUnits.Load)
	s.reg.GaugeFunc("cogd_queue_depth",
		"Requests waiting for a micro-batch slot.", "",
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("cogd_inflight_units",
		"Units admitted and not yet answered.", "",
		func() float64 { return float64(s.admitted.Load()) })
	s.reg.GaugeFunc("cogd_uptime_seconds",
		"Seconds since the daemon built its tables.", "",
		func() float64 { return time.Since(s.start).Seconds() })
}

// Service exposes the underlying batch service (its statistics in
// particular).
func (s *Server) Service() *batch.Service { return s.svc }

// Artifacts exposes the store behind /v1/artifacts — the local blob
// tiers (memory + disk), never the fleet.
func (s *Server) Artifacts() blob.Store { return s.artifacts }

// BlobCounters reports one blob backend's counters ("mem", "fs",
// "http"); nil when that tier is not configured.
func (s *Server) BlobCounters(backend string) *blob.Counters { return s.blobCounts[backend] }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting requests and waits until every in-flight
// request has been answered, or until ctx expires. Safe to call more
// than once.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.gate.drainChan():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the micro-batch collector and the grammar-session
// sweeper. Call after Drain; requests still queued are dispatched
// individually on the way out so no caller is left hanging.
func (s *Server) Close() {
	s.gate.drainChan()
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.collectorDone
	<-s.sweeperDone
}

// target resolves a request's spec field to its serving state, building
// the target (through the module cache) on first use. Only embedded
// spec names and the daemon's default are served.
func (s *Server) target(spec string) (*modTarget, error) {
	name, src, risc := s.opts.SpecName, s.opts.SpecSrc, s.opts.Risc
	switch spec {
	case "", s.opts.SpecName:
	case "amdahl470", "amdahl470.cogg":
		name, src, risc = "amdahl470.cogg", specs.Amdahl470, false
	case "amdahl-minimal", "minimal", "amdahl-minimal.cogg":
		name, src, risc = "amdahl-minimal.cogg", specs.AmdahlMinimal, false
	case "risc32", "risc32.cogg":
		name, src, risc = "risc32.cogg", specs.Risc32, true
	default:
		return nil, fmt.Errorf("unknown spec %q (serving amdahl470, amdahl-minimal, risc32, and the daemon default)", spec)
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if mt, ok := s.targets[name]; ok {
		return mt, nil
	}
	cfg := rt370.Config()
	if risc {
		cfg = driver.RiscConfig()
	}
	cfg.MaxStackDepth = s.opts.MaxStackDepth
	cfg.MaxCodeBytes = s.opts.MaxCodeBytes
	cfg.Metrics = codegen.NewMetrics(s.reg, name)
	tgt, err := s.svc.Target(name, src, cfg)
	if err != nil {
		return nil, err
	}
	mt := &modTarget{specName: name, key: batch.Key(name, src), tgt: tgt,
		pool:   newSessionPool(tgt.Gen, s.opts.PoolSize),
		oracle: oracle.New(tgt.Mod)}
	s.targets[name] = mt
	s.registerPoolMetrics(mt)
	return mt, nil
}

// registerPoolMetrics bridges one spec's session-pool counters into the
// registry.
func (s *Server) registerPoolMetrics(mt *modTarget) {
	events := "Session pool events by spec: created (fresh build), reused (from the free list), discarded (failed translation or full list)."
	p := mt.pool
	for _, e := range []struct {
		event string
		v     func() int64
	}{
		{"created", p.created.Load},
		{"reused", p.reused.Load},
		{"discarded", p.discarded.Load},
	} {
		s.reg.CounterFunc("cogd_sessions_total", events,
			obs.L("spec", mt.specName, "event", e.event), e.v)
	}
	s.reg.GaugeFunc("cogd_session_pool_free",
		"Reusable sessions on the free list.", obs.L("spec", mt.specName),
		func() float64 { return float64(len(p.free)) })
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.Handle("/v1/compile", s.instrument("/v1/compile", s.handleCompile))
	mux.Handle("/v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.Handle("/v1/grammar/session", s.instrument("/v1/grammar/session", s.handleGrammarSession))
	mux.Handle("/v1/grammar/next", s.instrument("/v1/grammar/next", s.handleGrammarNext))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/readyz", s.instrument("/readyz", s.handleReadyz))
	mux.Handle("/varz", s.instrument("/varz", s.handleVarz))
	mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("/v1/traces", s.instrument("/v1/traces", s.handleTraces))
	mux.Handle(blob.ArtifactPathPrefix,
		s.instrument("/v1/artifacts", s.traceArtifacts(blob.ArtifactHandler(s.artifacts, s.opts.MaxBodyBytes))))
	mux.Handle("/debug/vars", expvar.Handler())
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
}

// traceArtifacts records a server-side trace fragment for artifact
// requests that arrive carrying propagation headers — a peer's
// warm fetch or replication PUT. The fragment parents under the peer's
// blob-get/blob-put span, so a stitched timeline shows the serving side
// of every cross-replica artifact hop. Untraced requests (startup
// sweeps, curl) pass through without polluting the ring.
func (s *Server) traceArtifacts(h http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tid, parent := obs.Extract(r.Header)
		if tid == "" {
			h.ServeHTTP(w, r)
			return
		}
		tr := obs.NewTrace(tid, "artifact")
		tr.SetProcess(s.processName())
		if parent != "" {
			tr.SetRemoteParent(parent)
		}
		span := tr.StartSpan("artifact:"+r.Method, -1)
		w.Header().Set("X-Trace-Id", tr.ID())
		h.ServeHTTP(w, r)
		tr.EndSpan(span)
		s.ring.Add(tr.Snapshot())
	}
}

// instrument wraps a handler with per-endpoint HTTP metrics: request
// counts by status class and a latency histogram. The instruments are
// resolved once per endpoint at mux construction, so the per-request
// cost is one histogram observation and one counter add.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	lat := s.reg.Histogram("cogd_http_request_seconds",
		"HTTP request latency by endpoint, in seconds.",
		obs.L("endpoint", endpoint), obs.LatencyBuckets)
	classes := [5]*obs.Counter{}
	for i := range classes {
		classes[i] = s.reg.Counter("cogd_http_requests_total",
			"HTTP requests by endpoint and status class.",
			obs.L("endpoint", endpoint, "class", strconv.Itoa(i+1)+"xx"))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		lat.ObserveDuration(time.Since(t0))
		if c := sw.status/100 - 1; c >= 0 && c < len(classes) {
			classes[c].Inc()
		}
	})
}

// statusWriter captures the response status for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the partial-response
// failpoint can push its truncated body onto the wire before aborting.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// TracesResponse is the /v1/traces payload: span trees newest first.
type TracesResponse struct {
	Traces []*obs.TraceData `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		// One trace's fragments — what cogg trace fans out to collect.
		writeJSON(w, http.StatusOK, TracesResponse{Traces: s.ring.Find(id)})
		return
	}
	n := 0 // all retained traces
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.ring.Snapshot(n)})
}

// admit validates one request and stages it as a pending unit. It does
// not enqueue.
func (s *Server) admit(req *CompileRequest) (*pending, error) {
	mt, err := s.target(req.Spec)
	if err != nil {
		return nil, err
	}
	p := &pending{
		name:    req.Name,
		source:  req.Source,
		mt:      mt,
		deck:    req.Deck,
		showIF:  req.IF,
		explain: req.Explain,
		done:    make(chan struct{}),
	}
	if p.name == "" {
		p.name = "unit"
	}
	switch req.Lang {
	case "", "pascal":
		p.lang = langPascal
		p.opt = shaper.Options{
			StatementRecords: req.Options.statementRecords(),
			SubscriptChecks:  req.Options.SubscriptChecks,
			UninitChecks:     req.Options.UninitChecks,
		}
		if req.Options.CSE {
			p.opt.CSE = ifopt.New().Apply
		}
	case "if":
		p.lang = langIF
		if req.Deck || req.IF {
			return nil, fmt.Errorf("deck and if output are pascal-only")
		}
	default:
		return nil, fmt.Errorf("unknown lang %q (pascal or if)", req.Lang)
	}
	return p, nil
}

// requestContext derives the request's deadline: the client's
// deadline_ms when sent, the server default otherwise.
func (s *Server) requestContext(r *http.Request, deadlineMillis int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultDeadline
	if deadlineMillis > 0 {
		d = time.Duration(deadlineMillis) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.gate.enter() {
		s.stats.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.gate.exit()
	s.stats.Accepted.Add(1)

	// The trace starts before decoding so queue-full and bad-body
	// rejections leave an inspectable (if span-less) record. The ID is
	// echoed in the header even on errors.
	t0 := time.Now()
	tr, reqSpan := s.startTrace(r, "compile")
	w.Header().Set("X-Trace-Id", tr.ID())
	failMode := ""
	defer func() { s.finishTrace(tr, reqSpan, failMode, time.Since(t0)) }()

	var req CompileRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&req); err != nil {
		s.stats.Failed.Add(1)
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	p, err := s.admit(&req)
	if err != nil {
		s.stats.Failed.Add(1)
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Admission failpoint: a daemon refusing work at the door (resource
	// exhaustion, operator fencing) answers 503 + Retry-After, the same
	// contract as draining — retryable elsewhere.
	if err := faultinject.Eval("server/admit", p.name); err != nil {
		s.stats.Failed.Add(1)
		failMode = "injected"
		writeError(w, http.StatusServiceUnavailable, "admission refused: "+err.Error())
		return
	}
	tr.SetName(p.name)
	if s.admitted.Add(1) > int64(s.opts.QueueBound) {
		s.admitted.Add(-1)
		s.stats.RejectedQueueFull.Add(1)
		failMode = "queue-full"
		writeError(w, http.StatusTooManyRequests, "compilation queue is full")
		return
	}
	defer s.admitted.Add(-1)
	ctx, cancel := s.requestContext(r, req.DeadlineMillis)
	defer cancel()
	p.attachTrace(tr, reqSpan)
	p.ctx = obs.ContextWith(ctx, tr, p.unitSpan)

	select {
	case s.queue <- p:
	default:
		// Unreachable while admission holds: the queue's capacity is the
		// admission bound.
		s.stats.RejectedQueueFull.Add(1)
		failMode = "queue-full"
		writeError(w, http.StatusTooManyRequests, "compilation queue is full")
		return
	}
	select {
	case <-p.done:
		p.resp.TraceID = tr.ID()
		if p.resp.Failure != nil {
			failMode = p.resp.Failure.Mode
		}
		s.writeResult(w, p)
	case <-ctx.Done():
		// The unit may still finish inside the pool; its result is
		// dropped. The batch service's own per-unit deadline bounds how
		// long it can linger. Its unit span stays unfinished in the
		// trace, which is exactly what a timeout looks like.
		s.stats.TimedOut.Add(1)
		failMode = batch.FailTimeout.String()
		writeJSON(w, http.StatusGatewayTimeout, CompileResponse{
			Name:    p.name,
			TraceID: tr.ID(),
			Failure: &Failure{Mode: batch.FailTimeout.String(), Message: "deadline exceeded before compilation finished"},
		})
	}
}

// finishTrace ends the request span, records the snapshot in the
// /v1/traces ring, and — past the slow threshold — logs the span tree
// with the failure mode.
func (s *Server) finishTrace(tr *obs.Trace, reqSpan int, failMode string, elapsed time.Duration) {
	tr.EndSpan(reqSpan)
	if failMode != "" {
		tr.SetFailure(failMode)
	}
	s.slo.Observe(elapsed, tr.ID())
	td := tr.Snapshot()
	s.ring.Add(td)
	if s.opts.SlowThreshold > 0 && elapsed >= s.opts.SlowThreshold {
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("slow request",
				"trace_id", td.ID, "name", td.Name, "elapsed", elapsed.String(),
				"failure", td.Failure, "spans", len(td.Spans))
		} else {
			fmt.Fprintf(s.opts.SlowLog, "cogd: slow request (%v):\n%s", elapsed, td.Tree())
		}
	}
}

// startTrace opens the server's trace fragment for one inbound request:
// the trace ID and remote parent span come off the propagation headers
// when the caller sent any (a front's or peer's attempt span), so this
// fragment stitches under the caller's tree instead of orphaning.
func (s *Server) startTrace(r *http.Request, name string) (*obs.Trace, int) {
	tid, parent := obs.Extract(r.Header)
	tr := obs.NewTrace(tid, name)
	tr.SetProcess(s.processName())
	if parent != "" {
		tr.SetRemoteParent(parent)
	}
	return tr, tr.StartSpan("request", -1)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.gate.enter() {
		s.stats.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.gate.exit()

	t0 := time.Now()
	tr, reqSpan := s.startTrace(r, "batch")
	w.Header().Set("X-Trace-Id", tr.ID())
	failMode := ""
	defer func() { s.finishTrace(tr, reqSpan, failMode, time.Since(t0)) }()

	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&req); err != nil {
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Units) == 0 {
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, "batch has no units")
		return
	}
	if s.admitted.Add(int64(len(req.Units))) > int64(s.opts.QueueBound) {
		s.admitted.Add(-int64(len(req.Units)))
		s.stats.RejectedQueueFull.Add(1)
		failMode = "queue-full"
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch of %d units exceeds the admission capacity (%d)", len(req.Units), s.opts.QueueBound))
		return
	}
	defer s.admitted.Add(-int64(len(req.Units)))
	s.stats.Accepted.Add(int64(len(req.Units)))
	ctx, cancel := s.requestContext(r, req.DeadlineMillis)
	defer cancel()

	ps := make([]*pending, len(req.Units))
	for i := range req.Units {
		p, err := s.admit(&req.Units[i])
		if err != nil {
			failMode = "bad-request"
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unit %d: %v", i, err))
			return
		}
		p.attachTrace(tr, reqSpan)
		p.ctx = obs.ContextWith(ctx, tr, p.unitSpan)
		ps[i] = p
	}

	// A client-shaped batch is already coalesced; it skips the
	// micro-batch queue and runs as one batch over the worker pool.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.execute(ps)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.stats.TimedOut.Add(int64(len(ps)))
		failMode = batch.FailTimeout.String()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the batch finished")
		return
	}
	resp := BatchResponse{Results: make([]CompileResponse, len(ps)), TraceID: tr.ID()}
	for i, p := range ps {
		resp.Results[i] = p.resp
		if p.resp.Failure != nil {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: a process that can run this handler
// is alive, draining or not. Fleet supervisors restart on a failed
// healthz; routing decisions belong to /readyz — a draining daemon must
// not be restarted, just routed around.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 only while the daemon wants traffic.
// The default spec's tables and session pool are built eagerly by New,
// so a serving daemon that answers at all is warm; the one not-ready
// state is draining, answered 503 with Retry-After since the drain has
// a bounded horizon.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.gate.isDraining() {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// Varz is the /varz payload: server-level counters, per-spec pool
// state, and the batch service's snapshot.
type Varz struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Draining      bool                 `json:"draining"`
	Server        ServerSnapshot       `json:"server"`
	Pools         map[string]PoolStats `json:"pools"`
	Batch         batch.Snapshot       `json:"batch"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	v := Varz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.gate.isDraining(),
		Server:        s.stats.snapshot(s.admitted.Load(), len(s.queue), cap(s.queue)),
		Pools:         map[string]PoolStats{},
		Batch:         s.svc.Stats.Snapshot(),
	}
	s.tmu.Lock()
	for name, mt := range s.targets {
		v.Pools[name] = mt.pool.stats()
	}
	s.tmu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) writeResult(w http.ResponseWriter, p *pending) {
	if p.status != http.StatusOK {
		s.stats.Failed.Add(1)
	} else {
		s.stats.Completed.Add(1)
	}
	// The response-write failpoint models a daemon dying (or stalling —
	// KindDelay is a slow-loris) mid-response: half the body goes out,
	// then the connection aborts. Clients must treat the truncated body
	// as a transport error, never as a short-but-valid answer.
	if err := faultinject.Eval("server/response/write", p.name); err != nil {
		setRetryAfter(w, p.status)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(p.status)
		if data, merr := json.Marshal(p.resp); merr == nil {
			_, _ = w.Write(data[:len(data)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler)
	}
	setRetryAfter(w, p.status)
	writeJSON(w, p.status, p.resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	setRetryAfter(w, status)
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// setRetryAfter attaches the retry hint every backpressure answer
// carries: a full queue clears in about a batch window (seconds are the
// header's floor), a drain takes as long as the slowest in-flight unit.
// Retry policies that honor the header back off without guessing.
func setRetryAfter(w http.ResponseWriter, status int) {
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "5")
	}
}

// serverStats are the daemon-level counters behind /varz.
type serverStats struct {
	Accepted          atomic.Int64
	Completed         atomic.Int64
	Failed            atomic.Int64
	TimedOut          atomic.Int64
	RejectedQueueFull atomic.Int64
	RejectedDraining  atomic.Int64
	Batches           atomic.Int64
	BatchedUnits      atomic.Int64
	MaxBatchUnits     atomic.Int64
}

// ServerSnapshot is the /varz copy of serverStats.
type ServerSnapshot struct {
	Accepted          int64 `json:"accepted"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	TimedOut          int64 `json:"timed_out"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	Batches           int64 `json:"batches"`
	BatchedUnits      int64 `json:"batched_units"`
	MaxBatchUnits     int64 `json:"max_batch_units"`
	InFlightUnits     int64 `json:"in_flight_units"`
	QueueDepth        int   `json:"queue_depth"`
	QueueCap          int   `json:"queue_cap"`
}

func (st *serverStats) snapshot(inflight int64, depth, capacity int) ServerSnapshot {
	return ServerSnapshot{
		Accepted:          st.Accepted.Load(),
		Completed:         st.Completed.Load(),
		Failed:            st.Failed.Load(),
		TimedOut:          st.TimedOut.Load(),
		RejectedQueueFull: st.RejectedQueueFull.Load(),
		RejectedDraining:  st.RejectedDraining.Load(),
		Batches:           st.Batches.Load(),
		BatchedUnits:      st.BatchedUnits.Load(),
		MaxBatchUnits:     st.MaxBatchUnits.Load(),
		InFlightUnits:     inflight,
		QueueDepth:        depth,
		QueueCap:          capacity,
	}
}

func (st *serverStats) noteBatch(n int) {
	st.Batches.Add(1)
	st.BatchedUnits.Add(int64(n))
	for {
		max := st.MaxBatchUnits.Load()
		if int64(n) <= max || st.MaxBatchUnits.CompareAndSwap(max, int64(n)) {
			return
		}
	}
}

// drainGate tracks in-flight requests and the draining flag. Unlike a
// bare WaitGroup it makes reject-new-then-wait race-free: enter and the
// drain transition serialize on one mutex, so a request admitted before
// the drain always has its exit observed by the drain's idle channel.
type drainGate struct {
	mu         sync.Mutex
	inflight   int
	draining   bool
	idle       chan struct{}
	idleClosed bool
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 && g.idle != nil && !g.idleClosed {
		close(g.idle)
		g.idleClosed = true
	}
}

// drainChan flips the gate to draining and returns a channel closed
// once no request is in flight.
func (g *drainGate) drainChan() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.idle == nil {
		g.idle = make(chan struct{})
		if g.inflight == 0 {
			close(g.idle)
			g.idleClosed = true
		}
	}
	return g.idle
}

func (g *drainGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}
