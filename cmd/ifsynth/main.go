// Command ifsynth mass-produces valid-by-construction prefix-IF
// programs by random-walking a code generator specification's SLR
// tables through the grammar oracle (internal/oracle). The parse table
// already knows, in every state, exactly which IF symbols may come
// next; ifsynth turns that knowledge into a corpus factory for the
// fuzz, differential, and load suites.
//
// Every program is verified through a full code generation session
// before it is emitted, rejected programs are regenerated, and any
// reachable production the random walk misses is targeted with a
// minimal-derivation witness program — so a successful run certifies
// 100% coverage of the specification's reachable productions. The walk
// is deterministic given -seed: same seed, same corpus, byte for byte.
//
// Usage:
//
//	ifsynth [flags]
//
//	-spec NAME    specification: an embedded name (the list is
//	              specs.Lookup's; default amdahl470), never a file
//	-seed N       PRNG seed (default 42); the corpus is a pure function
//	              of (spec, seed, n, budgets)
//	-n N          programs to generate (default 100); witness programs
//	              for walk-missed productions are appended beyond n
//	-out DIR      write programs as DIR/<spec>-<seed>-NNNNN.if; without
//	              it, programs go to standard output one per line
//	-fuzz-out DIR write Go fuzz seed-corpus files under
//	              DIR/FuzzGenerate (the programs as IF text) and
//	              DIR/FuzzSpecParse (specification sources whose
//	              production section is rebuilt from walked programs),
//	              in "go test fuzz v1" encoding
//	-max-tokens N soft token budget per program (default 96)
//	-max-stmts N  statement budget per program (default 12)
//	-max-depth N  parse-stack depth budget (default 10)
//	-verify       verify each program through a codegen session
//	              (default true; -verify=false trusts the walk)
//	-q            suppress the per-spec coverage report
//
// Exit status is nonzero when generation fails or when any reachable
// production stays uncovered, so CI can gate on full coverage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cogg/internal/core"
	"cogg/internal/driver"
	"cogg/internal/ir"
	"cogg/internal/oracle"
	"cogg/internal/rt370"
	"cogg/specs"
)

func main() {
	var (
		specName  = flag.String("spec", "amdahl470", "embedded specification name")
		seed      = flag.Int64("seed", 42, "PRNG seed; the corpus is deterministic given it")
		n         = flag.Int("n", 100, "programs to generate (witnesses appended beyond n)")
		outDir    = flag.String("out", "", "write programs as files under this directory")
		fuzzOut   = flag.String("fuzz-out", "", "write Go fuzz seed-corpus files under this directory")
		maxTokens = flag.Int("max-tokens", 0, "soft token budget per program (default 96)")
		maxStmts  = flag.Int("max-stmts", 0, "statement budget per program (default 12)")
		maxDepth  = flag.Int("max-depth", 0, "parse-stack depth budget (default 10)")
		verify    = flag.Bool("verify", true, "verify each program through a codegen session")
		quiet     = flag.Bool("q", false, "suppress the coverage report")
	)
	flag.Parse()
	if err := run(*specName, *seed, *n, *outDir, *fuzzOut, *maxTokens, *maxStmts, *maxDepth, *verify, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "ifsynth:", err)
		os.Exit(1)
	}
}

func run(specName string, seed int64, n int, outDir, fuzzOut string, maxTokens, maxStmts, maxDepth int, verify, quiet bool) error {
	sp, err := specs.Lookup(specName)
	if err != nil {
		return err
	}
	name := sp.Name
	cg, err := core.Generate(name, sp.Src)
	if err != nil {
		return err
	}
	cfg := rt370.Config()
	if sp.Risc {
		cfg = driver.RiscConfig()
	}
	o := oracle.New(cg.Module())

	opts := oracle.CorpusOptions{
		Walk: oracle.WalkConfig{
			MaxTokens:     maxTokens,
			MaxStatements: maxStmts,
			MaxDepth:      maxDepth,
		},
	}
	if p := oracle.DefaultPriming(name); p != "" {
		toks, err := ir.ParseTokens(p)
		if err != nil {
			return fmt.Errorf("default priming for %s: %w", name, err)
		}
		opts.Walk.Priming = toks
	}
	if verify {
		gen, err := cg.NewGenerator(cfg)
		if err != nil {
			return err
		}
		ses, err := gen.NewSession()
		if err != nil {
			return err
		}
		opts.Verify = func(toks []ir.Token) ([]int, error) {
			_, res, err := ses.Generate("ifsynth", toks)
			if err != nil {
				return nil, err
			}
			return append([]int(nil), res.ProdCounts...), nil
		}
	}

	c, err := oracle.Generate(o, seed, n, opts)
	if err != nil {
		return err
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		base := strings.TrimSuffix(name, ".cogg")
		for i, toks := range c.Programs {
			path := filepath.Join(outDir, fmt.Sprintf("%s-%d-%05d.if", base, seed, i))
			if err := os.WriteFile(path, []byte(ir.FormatTokens(toks)+"\n"), 0o644); err != nil {
				return err
			}
		}
	} else {
		for _, toks := range c.Programs {
			fmt.Println(ir.FormatTokens(toks))
		}
	}
	if fuzzOut != "" {
		if err := writeFuzzSeeds(fuzzOut, name, seed, sp.Src, c.Programs); err != nil {
			return err
		}
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "%s seed=%d: %d programs, coverage %d/%d reachable productions (%d total, %d dead)\n",
			name, seed, len(c.Programs), c.Report.Covered, c.Report.Reachable, c.Report.Total, len(c.Report.Dead))
	}
	if !c.Report.Full() {
		return fmt.Errorf("%d reachable productions uncovered:\n%s",
			len(c.Report.Uncovered), strings.Join(c.Report.Uncovered, "\n"))
	}
	return nil
}

// writeFuzzSeeds emits Go seed-corpus files ("go test fuzz v1", one
// quoted string) for the two string-typed fuzz targets: FuzzGenerate
// seeds are the programs themselves; FuzzSpecParse seeds are
// specification sources whose production section is rebuilt from
// walked statements, exercising the spec parser on grammar-shaped
// right sides it has never seen.
func writeFuzzSeeds(dir, specName string, seed int64, specSrc string, programs [][]ir.Token) error {
	base := strings.TrimSuffix(specName, ".cogg")
	genDir := filepath.Join(dir, "FuzzGenerate")
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return err
	}
	limit := len(programs)
	if limit > 16 {
		limit = 16 // seeds steer the fuzzer; bulk lives in -out corpora
	}
	for i := 0; i < limit; i++ {
		path := filepath.Join(genDir, fmt.Sprintf("ifsynth-%s-%d-%03d", base, seed, i))
		if err := os.WriteFile(path, fuzzSeed(ir.FormatTokens(programs[i])), 0o644); err != nil {
			return err
		}
	}

	specDir := filepath.Join(dir, "FuzzSpecParse")
	if err := os.MkdirAll(specDir, 0o755); err != nil {
		return err
	}
	for i, mutated := range mutatedSpecs(specSrc, programs) {
		path := filepath.Join(specDir, fmt.Sprintf("ifsynth-%s-%d-%03d", base, seed, i))
		if err := os.WriteFile(path, fuzzSeed(mutated), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fuzzSeed encodes one string in the Go fuzzing seed-corpus format.
func fuzzSeed(s string) []byte {
	return []byte("go test fuzz v1\n" + fmt.Sprintf("string(%q)\n", s))
}

// mutatedSpecs grafts walked statements onto the specification's
// production section: each seed keeps the declaration sections intact
// and declares a handful of generated statements as lambda productions
// with a trivial template, so the spec parser sees syntactically fresh
// but grammar-shaped production lines.
func mutatedSpecs(specSrc string, programs [][]ir.Token) []string {
	marker := "$Productions"
	idx := strings.Index(specSrc, marker)
	if idx < 0 || len(programs) == 0 {
		return nil
	}
	head := specSrc[:idx+len(marker)]
	var out []string
	for i := 0; i < len(programs) && i < 4; i++ {
		var b strings.Builder
		b.WriteString(head)
		b.WriteString("\n")
		for _, stmt := range splitStatements(programs[i]) {
			fmt.Fprintf(&b, "\nlambda ::= %s\n nopr 0\n", stmt)
		}
		out = append(out, b.String())
	}
	return out
}

// splitStatements renders a program one statement-lead-to-statement-
// lead slice per line, approximating statement boundaries by the
// operators that may begin one (good enough for parser seeds, which
// need shape, not validity).
func splitStatements(toks []ir.Token) []string {
	var stmts []string
	start := 0
	for i := 1; i < len(toks); i++ {
		switch toks[i].Sym {
		case "assign", "branch_op", "label_def", "statement", "abort_op", "procedure_call":
			stmts = append(stmts, ir.FormatTokens(toks[start:i]))
			start = i
		}
	}
	stmts = append(stmts, ir.FormatTokens(toks[start:]))
	return stmts
}
