// Command cogd is the compile-as-a-service daemon: the table-driven
// code generator behind an HTTP/JSON API, with the tables built (or
// cache-loaded) once at startup and every request served from pooled
// translation sessions over the batch worker pool.
//
// Usage:
//
//	cogd [flags]
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8470)
//	-spec NAME       default specification (amdahl470, amdahl-minimal,
//	                 risc32, or a .cogg file path)
//	-risc            apply the risc32 target configuration to the spec
//	-cache DIR       on-disk blob store for table modules and decks
//	                 (warm starts skip SLR construction)
//	-blob-peers URLS comma-separated fleet replica base URLs; cold
//	                 starts fetch built artifacts from a peer's
//	                 /v1/artifacts instead of constructing tables
//	-blob-timeout D  per-attempt deadline for peer artifact fetches
//	                 (default 2s)
//	-blob-mem N      in-memory blob tier entry bound (default 256)
//	-j N             batch worker pool size (default GOMAXPROCS)
//	-pool N          reusable sessions kept per module (default 2*j)
//	-queue N         admission queue bound; a full queue answers 429
//	-batch-window D  micro-batch coalescing window (default 200µs)
//	-batch-max N     units per micro-batch (default 64)
//	-timeout D       default per-request deadline (default 15s)
//	-drain D         graceful-drain budget on SIGTERM/SIGINT (default 30s)
//	-trace-ring N    request traces retained for /v1/traces (default 64)
//	-slow D          log the span tree of requests slower than D
//	                 (0 disables slow-request logging)
//	-slo D           request-latency SLO threshold backing the
//	                 cogg_slo_* burn-rate series (default 50ms)
//	-slo-objective F target good-request fraction (default 0.99)
//	-log-format FMT  text (default, the traditional log lines) or json
//	                 (structured log/slog output carrying trace IDs)
//	-pprof           mount /debug/pprof (default off; profiling endpoints
//	                 stay unreachable unless explicitly requested)
//	-stats           print the batch-service counters on exit
//
// Endpoints: POST /v1/compile, POST /v1/batch, GET /healthz (liveness,
// always 200), /readyz (readiness: 503 with Retry-After while
// draining), /varz, /metrics (Prometheus text exposition), /v1/traces
// (recent span trees), /debug/vars, and (with -pprof) /debug/pprof.
// The bound listen address is logged at startup. On SIGTERM or SIGINT
// the daemon stops admitting work (readyz turns 503 so fleet fronts
// route around it; healthz stays 200 so supervisors don't restart a
// draining process), finishes in-flight requests within the drain
// budget, then exits. To run several cogd replicas behind one resilient
// endpoint, see cmd/cogdfront.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cogg/internal/applog"
	"cogg/internal/server"
	"cogg/specs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8470", "listen address")
	specName := flag.String("spec", "amdahl470", "default code generator specification")
	risc := flag.Bool("risc", false, "use the risc32 target configuration for the default spec")
	cacheDir := flag.String("cache", "", "table-module cache directory")
	blobPeers := flag.String("blob-peers", "", "comma-separated peer base URLs for the shared artifact tier")
	blobTimeout := flag.Duration("blob-timeout", 0, "per-attempt peer artifact fetch deadline (default 2s)")
	blobMem := flag.Int("blob-mem", 0, "in-memory blob tier entry bound (default 256)")
	workers := flag.Int("j", 0, "worker pool size (default GOMAXPROCS)")
	pool := flag.Int("pool", 0, "reusable sessions per module (default 2*j)")
	queue := flag.Int("queue", 0, "admission queue bound (default 256)")
	batchWindow := flag.Duration("batch-window", 0, "micro-batch coalescing window (default 200µs)")
	batchMax := flag.Int("batch-max", 0, "max units per micro-batch (default 64)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (default 15s)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	traceRing := flag.Int("trace-ring", 0, "request traces retained for /v1/traces (default 64)")
	slow := flag.Duration("slow", 0, "log the span tree of requests slower than this (0 disables)")
	sloTarget := flag.Duration("slo", 0, "request-latency SLO threshold (default 50ms)")
	sloObjective := flag.Float64("slo-objective", 0, "SLO good-request fraction (default 0.99)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof")
	stats := flag.Bool("stats", false, "print batch-service counters on exit")
	flag.Parse()

	// A nil *applog.Logger degrades to plain log.Printf, so the error
	// path below is safe even though lg is nil when New rejects the
	// format value.
	lg, err := applog.New(*logFormat, "cogd")
	if err != nil {
		lg.Fatalf("cogd: %v", err)
	}
	sName, sSrc, err := loadSpec(*specName)
	if err != nil {
		lg.Fatalf("cogd: %v", err)
	}
	if *specName == "risc32" {
		*risc = true
	}
	start := time.Now()
	srv, err := server.New(server.Options{
		SpecName:           sName,
		SpecSrc:            sSrc,
		Risc:               *risc,
		Workers:            *workers,
		CacheDir:           *cacheDir,
		PoolSize:           *pool,
		QueueBound:         *queue,
		BatchWindow:        *batchWindow,
		BatchMax:           *batchMax,
		DefaultDeadline:    *timeout,
		EnablePprof:        *pprofOn,
		TraceRing:          *traceRing,
		SlowThreshold:      *slow,
		SLOTarget:          *sloTarget,
		SLOObjective:       *sloObjective,
		BlobPeers:          splitPeers(*blobPeers),
		BlobMemEntries:     *blobMem,
		BlobAttemptTimeout: *blobTimeout,
		Logf:               lg.Printf,
		Logger:             lg.Slog(),
	})
	if err != nil {
		lg.Fatalf("cogd: %v", err)
	}

	// Listen before announcing: the logged address is the one actually
	// bound (":0" resolves to a real port), so scripts can scrape it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Fatalf("cogd: %v", err)
	}
	// The port distinguishes replicas in stitched cross-process traces.
	srv.SetProcess("cogd@" + ln.Addr().String())
	lg.Printf("cogd: serving %s on %s (tables ready in %v)", sName, ln.Addr(), time.Since(start).Round(time.Millisecond))
	if *pprofOn {
		lg.Printf("cogd: pprof enabled at http://%s/debug/pprof/", ln.Addr())
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		lg.Printf("cogd: %v: draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Drain(ctx); err != nil {
			lg.Printf("cogd: drain incomplete: %v", err)
		}
		srv.Close()
		if err := httpSrv.Shutdown(ctx); err != nil {
			lg.Printf("cogd: shutdown: %v", err)
		}
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			lg.Fatalf("cogd: %v", err)
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, srv.Service().Stats.String())
	}
}

// splitPeers turns the -blob-peers flag value into a URL list.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// loadSpec resolves an embedded spec name or reads a .cogg file.
func loadSpec(arg string) (string, string, error) {
	switch arg {
	case "amdahl470":
		return "amdahl470.cogg", specs.Amdahl470, nil
	case "amdahl-minimal", "minimal":
		return "amdahl-minimal.cogg", specs.AmdahlMinimal, nil
	case "risc32":
		return "risc32.cogg", specs.Risc32, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", "", err
	}
	return arg, string(b), nil
}
