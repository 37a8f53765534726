// Command cogg is the code generator generator: it accepts a code
// generator specification and produces the driving tables, reporting the
// statistics of the paper's Tables 1 and 2.
//
// Usage:
//
//	cogg [flags] [spec-file]
//	cogg explain [flags] [input-file]
//	cogg cache <ls|gc|verify> -dir DIR
//	cogg trace -targets URL[,URL...] [-id TRACE-ID]
//
// Without a spec argument the built-in Amdahl 470 specification is
// used; an embedded name (the list is specs.Lookup's) selects another
// built-in, and anything else is read as a .cogg file.
//
// The explain subcommand translates one unit with derivation recording
// on and prints, per emitted instruction, the production whose
// reduction emitted it, the template (index and specification line),
// the operand sources, and the register moves — the paper's
// inspectability claim made executable. See `cogg explain -h`.
//
// The cache subcommand administers the shared on-disk artifact tier
// (the daemon's -cache directory): ls joins the manifest sidecar with
// the blobs on disk, gc deletes unreferenced blobs past an age floor,
// and verify re-hashes every entry and reports manifest drift. See
// `cogg cache -h`.
//
// The trace subcommand collects one request's trace fragments from
// every fleet process (/v1/traces?id= on the front and the replicas),
// stitches them into a single cross-process timeline by span ID, and
// prints the tree — hedged attempts, breaker rejections, failovers, and
// peer blob fetches included. See `cogg trace -h`.
//
//	-stats      print Table 1 (grammar and parse table statistics), plus
//	            the batch-service counters when -cache is in use
//	-sizes      print Table 2 (artifact sizes in 4096-byte pages)
//	-conflicts  print resolved parse conflicts
//	-check      report structural table diagnostics
//	-state N    describe automaton state N
//	-o FILE     write the serialized table module
//	-cache DIR  publish the table module into the shared on-disk cache,
//	            keyed by content hash of the specification — the offline
//	            step that lets later ifcgen/pascal370 runs warm-start
//	            without reconstructing the SLR tables
//	-cpuprofile FILE  write a CPU profile (phase-labelled: tablebuild)
//	-memprofile FILE  write an allocation profile on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"cogg/internal/asm"
	"cogg/internal/batch"
	"cogg/internal/codegen"
	"cogg/internal/core"
	"cogg/internal/driver"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/lr"
	"cogg/internal/profiling"
	"cogg/internal/rt370"
	"cogg/internal/shaper"
	"cogg/internal/tables"
	"cogg/specs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cache" {
		runCache(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	stats := flag.Bool("stats", true, "print Table 1 statistics")
	sizes := flag.Bool("sizes", false, "print Table 2 sizes (pages)")
	conflicts := flag.Bool("conflicts", false, "print resolved conflicts")
	check := flag.Bool("check", false, "report structural table diagnostics")
	state := flag.Int("state", -1, "describe one automaton state")
	out := flag.String("o", "", "write the serialized table module to this file")
	cacheDir := flag.String("cache", "", "publish the table module into this cache directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	arg := flag.Arg(0)
	if arg == "" {
		arg = "amdahl470"
	}
	sp, err := specs.Load(arg)
	if err != nil {
		fatal(err)
	}
	name, src := sp.Name, sp.Src
	var cg *core.CodeGenerator
	profiling.Phase("tablebuild", func() {
		cg, err = core.Generate(name, src)
	})
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("Table 1 — %s\n%s\n", name, cg.Table1())
	}
	if *sizes {
		t2, err := cg.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Table 2 — %s (sizes in pages)\n%s\n", name, t2)
	}
	if *conflicts {
		for _, c := range cg.Table.Conflicts {
			kind := "shift/reduce -> shift"
			if c.Kind == lr.ReduceReduce {
				kind = "reduce/reduce -> longest"
			}
			fmt.Printf("state %4d on %-16s %s (chosen %v over %v)\n",
				c.State, cg.Automaton.SymName(c.Sym), kind, c.Chosen, c.Losers)
		}
		fmt.Printf("%d conflicts resolved\n", len(cg.Table.Conflicts))
	}
	if *check {
		issues := lr.CheckTable(cg.Table)
		for _, is := range issues {
			fmt.Printf("state %4d: %s\n", is.State, is.Msg)
		}
		fmt.Printf("%d diagnostics\n", len(issues))
	}
	if *state >= 0 {
		if *state >= len(cg.Automaton.States) {
			fatal(fmt.Errorf("state %d out of range (automaton has %d states)", *state, len(cg.Automaton.States)))
		}
		fmt.Print(cg.Automaton.Describe(*state))
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sz, err := cg.Encode(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d bytes (%.1f pages; templates %.1f, compressed table %.1f)\n",
			*out, sz.Total, tables.Pages(sz.Total), tables.Pages(sz.Templates), tables.Pages(sz.Compressed))
	}
	if *cacheDir != "" {
		svc := batch.New(batch.Options{CacheDir: *cacheDir})
		if err := svc.Store(name, src, cg.Module()); err != nil {
			fatal(err)
		}
		fmt.Printf("cached table module %s under %s\n", batch.Key(name, src)[:12], *cacheDir)
		if *stats {
			fmt.Print(svc.Stats.String())
		}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// runExplain is the `cogg explain` subcommand: translate one unit with
// derivation recording and print the instruction -> production map.
func runExplain(args []string) {
	fs := flag.NewFlagSet("cogg explain", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: cogg explain [flags] [input-file]

Translate one unit with derivation recording and print, per emitted
instruction, the production, template, operand sources, and register
moves that produced it. Reads whitespace-separated prefix-IF tokens
from the file or standard input; -pascal compiles Pascal source through
the front end first. A blocked parse prints the partial derivation
recorded up to the block, then the diagnostics, and exits nonzero.

`)
		fs.PrintDefaults()
	}
	spec := fs.String("spec", "amdahl470", "code generator specification: an embedded name or a .cogg file")
	risc := fs.Bool("risc", false, "use the risc32 target configuration (implied by -spec risc32)")
	pascalIn := fs.Bool("pascal", false, "input is Pascal source, not prefix-IF")
	listing := fs.Bool("S", false, "print the assembly listing before the derivation")
	fs.Parse(args)
	if fs.NArg() > 1 {
		fatal(fmt.Errorf("explain takes one input file (or standard input)"))
	}

	sp, err := specs.Load(*spec)
	if err != nil {
		fatal(err)
	}
	cfg := rt370.Config()
	if *risc || sp.Risc {
		cfg = driver.RiscConfig()
	}
	tgt, err := driver.NewTargetWithConfig(sp.Name, sp.Src, cfg)
	if err != nil {
		fatal(err)
	}

	unitName, text := "explain", ""
	if fs.NArg() == 1 {
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		unitName, text = fs.Arg(0), string(b)
	} else {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		text = string(b)
	}

	// Recording runs on a session of its own; its entries survive a
	// blocked parse, covering the instructions emitted before the block.
	ses, err := tgt.Gen.NewSession()
	if err != nil {
		fatal(err)
	}
	ses.EnableProvenance(true)
	var prog *asm.Program
	var genErr error
	if *pascalIn {
		var c *driver.Compiled
		c, genErr = tgt.CompileWith(context.Background(), ses, unitName, text, shaper.Options{StatementRecords: true})
		if c != nil {
			prog = c.Prog
		}
	} else {
		toks, err := ir.ParseTokens(text)
		if err != nil {
			fatal(err)
		}
		prog, _, genErr = ses.Generate(unitName, toks)
	}
	if *listing && genErr == nil {
		if err := labels.Layout(prog, tgt.Machine); err != nil {
			fatal(err)
		}
		fmt.Print(asm.Listing(prog, tgt.Machine))
		fmt.Println()
	}
	fmt.Print(codegen.FormatProvenance(ses.Provenance()))
	if genErr != nil {
		fmt.Fprintf(os.Stderr, "cogg explain: %s: %v\n", unitName, genErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cogg:", err)
	os.Exit(1)
}
