// Command cogdfront is the fleet front for replicated cogd daemons: a
// reverse proxy that consistent-hashes requests across replicas by spec
// (cache affinity), probes every replica's /readyz, retries retryable
// answers with jittered backoff honoring Retry-After, hedges slow
// requests, trips per-replica circuit breakers, and — with -local — falls
// back to in-process compilation (responses flagged "degraded":true)
// when no replica can answer. The policy engine is internal/cluster,
// shared with coggload's -targets mode.
//
// Usage:
//
//	cogdfront -targets URL[,URL...] [flags]
//
//	-addr HOST:PORT       listen address (default 127.0.0.1:8471)
//	-targets URLS         comma-separated replica base URLs (required)
//	-retries N            retryable-answer retries per request (default 3)
//	-timeout D            per-attempt timeout; a hung replica is only
//	                      detectable through this (default 10s)
//	-hedge-after D        hedge a request still unanswered after D;
//	                      0 adapts to the observed p99, -1 disables
//	                      (default 0)
//	-probe-interval D     /readyz probe period per replica (default 250ms)
//	-breaker-threshold N  consecutive failures that open a replica's
//	                      breaker (default 5)
//	-breaker-cooldown D   open-breaker cooldown before the half-open
//	                      probe (default 1s)
//	-local                serve requests locally when no replica can
//	-spec NAME            the replicas' default spec (as cogd -spec: an
//	                      embedded name, the list is specs.Lookup's, or a
//	                      path): requests naming no spec route with
//	                      requests naming it; also the local tier's spec
//	-risc                 local tier's risc32 configuration (implied by
//	                      -spec risc32)
//	-cache DIR            local tier's table-module cache directory
//	-log-format FMT       text (default, the traditional log lines) or
//	                      json (structured log/slog output)
//
// Endpoints mirror cogd's: POST /v1/compile, /v1/batch,
// /v1/grammar/session, /v1/grammar/next (grammar sessions are pinned to
// the replica that opened them via a session-ID prefix — a hash of the
// replica's URL, so the front stays stateless and any front over the
// same replicas routes the session home regardless of -targets order),
// GET /healthz, /readyz, /varz (replica health and policy counters),
// /metrics (cluster_* series in Prometheus text), /v1/traces (recent
// front-side span trees; ?id= filters by trace ID for cogg trace).
package main

import (
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cogg/internal/applog"
	"cogg/internal/cluster"
	"cogg/internal/obs"
	"cogg/internal/server"
	"cogg/specs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8471", "listen address")
	targets := flag.String("targets", "", "comma-separated cogd replica base URLs")
	retries := flag.Int("retries", 3, "retryable-answer retries per request")
	timeout := flag.Duration("timeout", 10*time.Second, "per-attempt timeout")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge delay (0: adaptive p99, -1: off)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "/readyz probe period per replica")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open a breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "open-breaker cooldown")
	local := flag.Bool("local", false, "fall back to in-process compilation when no replica can answer")
	specName := flag.String("spec", "amdahl470", "replicas' default and local tier's code generator specification")
	risc := flag.Bool("risc", false, "local tier's risc32 target configuration")
	cacheDir := flag.String("cache", "", "local tier's table-module cache directory")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	// A nil *applog.Logger degrades to plain log.Printf, so the error
	// path is safe even though lg is nil when New rejects the format.
	lg, err := applog.New(*logFormat, "cogdfront")
	if err != nil {
		lg.Fatalf("cogdfront: %v", err)
	}
	var urls []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			urls = append(urls, t)
		}
	}
	if len(urls) == 0 {
		lg.Fatalf("cogdfront: -targets is required (comma-separated cogd base URLs)")
	}

	reg := obs.NewRegistry()
	opts := cluster.Options{
		Targets:          urls,
		MaxRetries:       *retries,
		AttemptTimeout:   *timeout,
		HedgeAfter:       *hedgeAfter,
		ProbeInterval:    *probeInterval,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Registry:         reg,
	}
	if *local {
		// The local tier is built on first use, not at startup: a front
		// over a healthy fleet never pays table construction.
		opts.Local = func() (http.Handler, error) {
			sp, err := specs.Load(*specName)
			if err != nil {
				return nil, err
			}
			srv, err := server.New(server.Options{
				SpecName: sp.Name,
				SpecSrc:  sp.Src,
				Risc:     *risc || sp.Risc,
				CacheDir: *cacheDir,
				Registry: reg,
				Process:  "cogdfront-local",
				Logf:     lg.Printf,
				Logger:   lg.Slog(),
			})
			if err != nil {
				return nil, err
			}
			lg.Printf("cogdfront: degraded: serving %s locally", sp.Name)
			return srv.Handler(), nil
		}
	}
	cl, err := cluster.New(opts)
	if err != nil {
		lg.Fatalf("cogdfront: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Fatalf("cogdfront: %v", err)
	}
	lg.Printf("cogdfront: serving %d replicas (%s) on %s", len(urls), strings.Join(cl.Replicas(), ", "), ln.Addr())

	front := cluster.NewFront(cl)
	front.SetDefaultSpec(*specName)
	// The bound address distinguishes this front in stitched traces.
	front.SetProcess("cogdfront@" + ln.Addr().String())
	httpSrv := &http.Server{Handler: front.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		lg.Printf("cogdfront: %v: shutting down", sig)
		cl.Close()
		_ = httpSrv.Close()
	case err := <-errc:
		lg.Fatalf("cogdfront: %v", err)
	}
}
