// Command pascal370 is the complete compiler: Pascal source through the
// shaper, the IF optimizer, and the table-driven code generator to an
// S/370 object deck, optionally executed on the simulator.
//
// Usage:
//
//	pascal370 [flags] program.pas...
//
// Several programs compile concurrently on the batch service's worker
// pool; per-program output appears in argument order regardless of
// completion order.
//
//	-spec NAME   code generator specification: an embedded name (the
//	             list is specs.Lookup's) or a .cogg file path; default
//	             amdahl470. risc32 compiles and lists; -run and -dis
//	             need the S/370 target
//	-cache DIR   table-module cache: warm-start from a module published
//	             by cogg -cache instead of reconstructing the tables
//	-j N         worker pool size (default GOMAXPROCS)
//	-stats       print batch-service counters to standard error
//	-timeout D   per-program wall-time limit (e.g. 30s); a program past
//	             the deadline fails alone, the rest of the batch proceeds
//	-retries N   retry a program that failed with a transient (I/O) fault
//	-max-errors N  blocked-parse diagnostics collected per program before
//	             giving up (default 16)
//	-trace       print each program's phase-span tree (spec-load,
//	             table-decode/build, frontend, shape, parse-reduce with
//	             regalloc/emit children, assemble) to standard error
//	-S           print the assembly listing
//	-if          print the linearized intermediate form
//	-cse         run the IF optimizer (common subexpressions)
//	-checks      emit subscript checks
//	-deck FILE   write the object deck (single program only)
//	-run         execute on the simulator
//	-set n=v     initialize variable n before running (repeatable)
//	-print a,b   print listed variables after the run
//	-cpuprofile FILE  write a CPU profile (phase-labelled: tablebuild,
//	             decode, codegen)
//	-memprofile FILE  write an allocation profile on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cogg/internal/batch"
	"cogg/internal/driver"
	"cogg/internal/ifopt"
	"cogg/internal/ir"
	"cogg/internal/obs"
	"cogg/internal/profiling"
	"cogg/internal/rt370"
	"cogg/internal/s370"
	"cogg/internal/shaper"
	"cogg/specs"
)

type setFlags map[string]int32

func (s setFlags) String() string { return "" }

func (s setFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", v)
	}
	n, err := strconv.ParseInt(val, 10, 32)
	if err != nil {
		return err
	}
	s[name] = int32(n)
	return nil
}

func main() {
	specName := flag.String("spec", "amdahl470", "code generator specification")
	cacheDir := flag.String("cache", "", "table-module cache directory")
	workers := flag.Int("j", 0, "worker pool size (default GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print batch-service statistics to stderr")
	timeout := flag.Duration("timeout", 0, "per-program wall-time limit (0 disables)")
	retries := flag.Int("retries", 0, "retries for transient (I/O) faults")
	maxErrors := flag.Int("max-errors", 0, "blocked-parse diagnostics per program (default 16)")
	trace := flag.Bool("trace", false, "print each program's phase-span tree to stderr")
	listing := flag.Bool("S", false, "print the assembly listing")
	showIF := flag.Bool("if", false, "print the linearized intermediate form")
	cse := flag.Bool("cse", false, "run the IF optimizer")
	checks := flag.Bool("checks", false, "emit subscript checks")
	uninit := flag.Bool("uninit", false, "abort on reads of uninitialized integers")
	deck := flag.String("deck", "", "write the object deck to this file")
	dis := flag.Bool("dis", false, "disassemble the object text (verifies the encoder)")
	run := flag.Bool("run", false, "execute on the simulator")
	printVars := flag.String("print", "", "comma separated variables to print after -run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	inits := setFlags{}
	flag.Var(inits, "set", "initialize a variable: name=value")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pascal370 [flags] program.pas...")
		os.Exit(2)
	}
	if *deck != "" && flag.NArg() > 1 {
		fatal(fmt.Errorf("-deck names a single output file; pass one program"))
	}

	opt := shaper.Options{StatementRecords: true, SubscriptChecks: *checks, UninitChecks: *uninit}
	if *cse {
		opt.CSE = ifopt.New().Apply
	}
	// With -trace, a startup trace brackets spec loading and table
	// construction, and each program gets its own trace threaded through
	// the pipeline via its unit context.
	var startupTr *obs.Trace
	tctx := context.Background()
	if *trace {
		startupTr = obs.NewTrace("", "startup")
		tctx = obs.ContextWith(tctx, startupTr, -1)
	}
	var unitTraces []*obs.Trace
	units := make([]batch.Unit, 0, flag.NArg())
	for _, srcFile := range flag.Args() {
		src, err := os.ReadFile(srcFile)
		if err != nil {
			fatal(err)
		}
		u := batch.Unit{Name: srcFile, Source: string(src), Opt: opt}
		if *trace {
			tr := obs.NewTrace("", srcFile)
			unitTraces = append(unitTraces, tr)
			u.Ctx = obs.ContextWith(context.Background(), tr, -1)
		}
		units = append(units, u)
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
	svc := batch.New(batch.Options{
		CacheDir:      *cacheDir,
		Workers:       *workers,
		UnitTimeout:   *timeout,
		Retries:       *retries,
		MeasureAllocs: *stats,
	})
	cfg := rt370.Config()
	if sp.Risc {
		cfg = driver.RiscConfig()
	}
	cfg.MaxBlocks = *maxErrors
	tgt, err := svc.TargetCtx(tctx, sp.Name, sp.Src, cfg)
	if err != nil {
		fatal(err)
	}
	if startupTr != nil {
		fmt.Fprint(os.Stderr, startupTr.Snapshot().Tree())
	}

	failed := false
	for i, r := range svc.CompileBatch(tgt, units) {
		if *trace {
			fmt.Fprint(os.Stderr, unitTraces[i].Snapshot().Tree())
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "pascal370: %s [%s]: %v\n", r.Name, r.Mode, r.Err)
			failed = true
			continue
		}
		if err := report(r.Name, r.Compiled, tgt, reportOpts{
			listing: *listing, showIF: *showIF, dis: *dis, deck: *deck,
			run: *run, printVars: *printVars, inits: inits,
		}); err != nil {
			fatal(err)
		}
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

type reportOpts struct {
	listing, showIF, dis, run bool
	deck, printVars           string
	inits                     setFlags
}

// report prints one compiled program's requested views and optionally
// runs it — the per-program half of the original single-file flow.
func report(srcFile string, c *driver.Compiled, tgt *driver.Target, o reportOpts) error {
	if o.showIF {
		fmt.Println(ir.FormatTokens(c.Tokens))
	}
	if o.listing {
		fmt.Print(c.Listing())
	}
	fmt.Printf("%s: %d IF tokens, %d reductions, %d instructions, %d code bytes\n",
		srcFile, len(c.Tokens), c.Result.Reductions,
		c.Prog.InstructionCount(), c.Prog.CodeSize)

	if o.dis {
		m, ok := tgt.Machine.(*s370.Machine)
		if !ok {
			return fmt.Errorf("-dis supports the s370 target only")
		}
		for _, txt := range c.Deck.Texts {
			if txt.Addr >= c.Prog.Origin && txt.Addr < c.Prog.Origin+c.Prog.CodeSize {
				fmt.Print(s370.DisassembleAll(m, txt.Data, txt.Addr))
			}
		}
	}
	if o.deck != "" {
		f, err := os.Create(o.deck)
		if err != nil {
			return err
		}
		if err := c.Deck.WriteCards(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d text bytes\n", o.deck, c.Deck.TotalTextBytes())
	}
	if o.run {
		cpu, err := c.Run(o.inits, 50_000_000)
		if err != nil {
			return err
		}
		fmt.Printf("executed %d instructions\n", cpu.Steps)
		if out := driver.Output(cpu); len(out) > 0 {
			fmt.Print("output:")
			for _, v := range out {
				fmt.Printf(" %d", v)
			}
			fmt.Println()
		}
		if o.printVars != "" {
			for _, name := range strings.Split(o.printVars, ",") {
				name = strings.TrimSpace(name)
				v, err := driver.Word(cpu, c, name)
				if err != nil {
					return err
				}
				fmt.Printf("  %s = %d\n", name, v)
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pascal370:", err)
	os.Exit(1)
}
