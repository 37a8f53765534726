// Command ifcgen drives a generated code generator over textual
// intermediate form directly — the tool for debugging code generator
// specifications without a front end in the loop.
//
// Usage:
//
//	ifcgen [flags] [if-file...]
//
// The IF is read from the files or standard input, as whitespace
// separated tokens ("assign fullword dsp.100 r.13 iadd ..."). With
// several files the streams are translated concurrently on the batch
// service's worker pool; listings are printed in argument order.
//
//	-spec NAME   specification: an embedded name (the list is
//	             specs.Lookup's) or a .cogg file path
//	-risc        use the risc32 target configuration (implied by
//	             -spec risc32)
//	-cache DIR   table-module cache: warm-start from a module published
//	             by cogg -cache instead of reconstructing the tables
//	-j N         worker pool size (default GOMAXPROCS)
//	-stats       print the batch-service counters (cache traffic, table
//	             build vs. codegen time, queue depth) to standard error
//	-trace       trace every parser action to stderr (single stream only)
//	-spans       print each stream's phase-span tree (spec-load,
//	             table-decode/build, parse-reduce with regalloc/emit
//	             children) to standard error
//	-timeout D   per-stream wall-time limit (e.g. 30s); a stream past the
//	             deadline fails alone while the rest of the batch proceeds
//	-retries N   retry a stream that failed with a transient (I/O) fault
//	-max-errors N  blocked-parse diagnostics collected per stream before
//	             giving up (default 16); each names the parse state, the
//	             stacked symbols, and the IF operator the tables reject
//	-cpuprofile FILE  write a CPU profile (phase-labelled: tablebuild,
//	             decode, codegen)
//	-memprofile FILE  write an allocation profile on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"cogg/internal/batch"
	"cogg/internal/driver"
	"cogg/internal/obs"
	"cogg/internal/profiling"
	"cogg/internal/rt370"
	"cogg/specs"
)

func main() {
	specName := flag.String("spec", "amdahl470", "code generator specification")
	risc := flag.Bool("risc", false, "use the risc32 target configuration")
	trace := flag.Bool("trace", false, "trace every parser action to stderr")
	spans := flag.Bool("spans", false, "print each stream's phase-span tree to stderr")
	cacheDir := flag.String("cache", "", "table-module cache directory")
	workers := flag.Int("j", 0, "worker pool size (default GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print batch-service statistics to stderr")
	timeout := flag.Duration("timeout", 0, "per-stream wall-time limit (0 disables)")
	retries := flag.Int("retries", 0, "retries for transient (I/O) faults")
	maxErrors := flag.Int("max-errors", 0, "blocked-parse diagnostics per stream (default 16)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	units, err := readUnits(flag.Args())
	if err != nil {
		fatal(err)
	}
	if *trace && len(units) > 1 {
		fatal(fmt.Errorf("-trace interleaves across streams; pass a single file"))
	}

	// With -spans, a startup trace brackets spec loading and table
	// construction, and each stream gets its own trace via its unit
	// context (the -trace flag is the parser-action log, a different
	// view).
	var startupTr *obs.Trace
	tctx := context.Background()
	var unitTraces []*obs.Trace
	if *spans {
		startupTr = obs.NewTrace("", "startup")
		tctx = obs.ContextWith(tctx, startupTr, -1)
		unitTraces = make([]*obs.Trace, len(units))
		for i := range units {
			unitTraces[i] = obs.NewTrace("", units[i].Name)
			units[i].Ctx = obs.ContextWith(context.Background(), unitTraces[i], -1)
		}
	}

	var specSpan int
	if startupTr != nil {
		specSpan = startupTr.StartSpan("spec-load", -1)
	}
	sp, err := specs.Load(*specName)
	if startupTr != nil {
		startupTr.EndSpan(specSpan)
	}
	if err != nil {
		fatal(err)
	}
	cfg := rt370.Config()
	if *risc || sp.Risc {
		cfg = driver.RiscConfig()
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	cfg.MaxBlocks = *maxErrors

	svc := batch.New(batch.Options{
		CacheDir:      *cacheDir,
		Workers:       *workers,
		UnitTimeout:   *timeout,
		Retries:       *retries,
		MeasureAllocs: *stats,
	})
	tgt, err := svc.TargetCtx(tctx, sp.Name, sp.Src, cfg)
	if err != nil {
		fatal(err)
	}
	if startupTr != nil {
		fmt.Fprint(os.Stderr, startupTr.Snapshot().Tree())
	}
	results := svc.TranslateBatch(tgt, units)

	failed := false
	for i, r := range results {
		if *spans {
			fmt.Fprint(os.Stderr, unitTraces[i].Snapshot().Tree())
		}
		if len(results) > 1 {
			fmt.Printf("=== %s\n", r.Name)
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "ifcgen: %s [%s]: %v\n", r.Name, r.Mode, r.Err)
			failed = true
			continue
		}
		fmt.Print(r.Listing)
		fmt.Printf("%d tokens, %d reductions, %d instructions\n",
			r.Tokens, r.Reductions, r.Instructions)
	}
	if *stats {
		fmt.Fprint(os.Stderr, svc.Stats.String())
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// readUnits loads each named IF file, or standard input when no files
// are given.
func readUnits(args []string) ([]batch.IFUnit, error) {
	if len(args) == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return []batch.IFUnit{{Name: "ifcgen", Text: string(src)}}, nil
	}
	units := make([]batch.IFUnit, 0, len(args))
	for _, a := range args {
		src, err := os.ReadFile(a)
		if err != nil {
			return nil, err
		}
		units = append(units, batch.IFUnit{Name: a, Text: string(src)})
	}
	return units, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ifcgen:", err)
	os.Exit(1)
}
