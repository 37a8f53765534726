package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"cogg/internal/core"
	"cogg/internal/driver"
	"cogg/internal/ir"
	"cogg/internal/oracle"
	"cogg/internal/rt370"
	"cogg/internal/server"
	"cogg/specs"
)

// specName is the specification every workload compiles against: the
// daemon's default, the paper's full Amdahl 470 description.
const specName = "amdahl470.cogg"

// input is one distinct request the benchmark can send: the JSON body
// the daemon receives, plus what the output check needs to rebuild the
// answer through the library path.
type input struct {
	name   string
	lang   string // "if" or "pascal"
	source string
	cse    bool
	body   []byte
}

func newInput(name, lang, source string, cse bool) input {
	req := server.CompileRequest{Name: name, Lang: lang, Source: source}
	if lang == "pascal" {
		req.Deck = true
		req.Options.CSE = cse
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a CompileRequest of plain strings always marshals
	}
	return input{name: name, lang: lang, source: source, cse: cse, body: body}
}

// library is the benchmark's own copy of the generator, built straight
// from the specification with no daemon, cache, or blob tier in
// between. It synthesizes the IF corpus and is the reference side of
// the output check.
type library struct {
	cg  *core.CodeGenerator
	tgt *driver.Target
}

func newLibrary() (*library, error) {
	cg, err := core.Generate(specName, specs.Amdahl470)
	if err != nil {
		return nil, fmt.Errorf("building %s tables: %w", specName, err)
	}
	tgt, err := driver.NewTargetFromModule(cg.Module(), rt370.Config())
	if err != nil {
		return nil, err
	}
	return &library{cg: cg, tgt: tgt}, nil
}

// ifCorpus synthesizes n raw prefix-IF programs by random-walking the
// SLR tables (internal/oracle), each verified through a code generation
// session, plus the oracle's witness programs for any production the
// walk missed. It fails unless the corpus covers every reachable
// production.
func (lib *library) ifCorpus(seed int64, n int) ([]input, error) {
	ses, err := lib.tgt.Gen.NewSession()
	if err != nil {
		return nil, err
	}
	opts := oracle.CorpusOptions{Verify: func(toks []ir.Token) ([]int, error) {
		_, res, err := ses.Generate("verify", toks)
		if err != nil {
			return nil, err
		}
		return append([]int(nil), res.ProdCounts...), nil
	}}
	priming, err := ir.ParseTokens(oracle.DefaultPriming(specName))
	if err != nil {
		return nil, err
	}
	opts.Walk.Priming = priming
	c, err := oracle.Generate(oracle.New(lib.cg.Module()), seed, n, opts)
	if err != nil {
		return nil, fmt.Errorf("synthesizing IF corpus: %w", err)
	}
	if !c.Report.Full() {
		return nil, fmt.Errorf("IF corpus covers %d of %d reachable productions", c.Report.Covered, c.Report.Reachable)
	}
	out := make([]input, len(c.Programs))
	for i, toks := range c.Programs {
		out[i] = newInput(fmt.Sprintf("if%d", i), "if", ir.FormatTokens(toks), false)
	}
	return out, nil
}

// sizeBands are the statement counts of the generated Pascal programs'
// main bodies: small, medium, large.
var sizeBands = [][]int{{4, 6, 8}, {12, 16, 20}, {28, 34, 40}}

// pascalPrograms draws n distinct random Pascal programs named
// prefix0, prefix1, ... Sizes cycle through every band and statement
// count of sizeBands, and the IF optimizer is requested on every other
// program, so any n sends the same mix whatever the seed; what the
// statements are is random.
func pascalPrograms(r *rand.Rand, prefix string, n int) []input {
	var sizes []int
	for i := range sizeBands[0] {
		for _, band := range sizeBands {
			sizes = append(sizes, band[i])
		}
	}
	seen := map[string]bool{}
	out := make([]input, 0, n)
	for len(out) < n {
		k := len(out)
		src := pascalProgram(r, sizes[k%len(sizes)])
		if seen[src] {
			continue
		}
		seen[src] = true
		out = append(out, newInput(fmt.Sprintf("%s%d", prefix, k), "pascal", src, k%2 == 0))
	}
	return out
}

// progGen builds random integer Pascal programs: bounded loops, nonzero
// divisors, no nested for-loops on the shared counter, so every program
// terminates without a runtime check firing. It covers the same
// language surface as the driver package's differential fuzzer —
// arithmetic, conditions, case, booleans, halfwords, sets, a function,
// and a recursive procedure.
type progGen struct {
	r     *rand.Rand
	sb    strings.Builder
	inFor bool
}

var progVars = []string{"a", "b", "c", "d"}

func (g *progGen) variable() string { return progVars[g.r.Intn(len(progVars))] }

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprint(g.r.Intn(90) + 1)
		case 1:
			return g.variable()
		default:
			return fmt.Sprintf("v[%d]", g.r.Intn(8)+1)
		}
	}
	l, r := g.expr(depth-1), g.expr(depth-1)
	switch g.r.Intn(7) {
	case 0:
		return "(" + l + " + " + r + ")"
	case 1:
		return "(" + l + " - " + r + ")"
	case 2:
		return "(" + l + " * " + r + ")"
	case 3:
		return fmt.Sprintf("(%s div %d)", l, g.r.Intn(9)+1)
	case 4:
		return fmt.Sprintf("(%s mod %d)", l, g.r.Intn(9)+1)
	case 5:
		return "abs(" + l + ")"
	default:
		return "(-" + l + ")"
	}
}

func (g *progGen) cond(depth int) string {
	rel := []string{"=", "<>", "<", "<=", ">", ">="}[g.r.Intn(6)]
	base := "(" + g.expr(depth) + " " + rel + " " + g.expr(depth) + ")"
	switch g.r.Intn(4) {
	case 0:
		return base + " and (" + g.expr(depth) + " < " + g.expr(depth) + ")"
	case 1:
		return base + " or (" + g.expr(depth) + " > " + g.expr(depth) + ")"
	case 2:
		return "not " + base
	default:
		return base
	}
}

func (g *progGen) printf(format string, args ...any) { fmt.Fprintf(&g.sb, format, args...) }

func (g *progGen) stmt(in string, depth int) {
	choice := g.r.Intn(12)
	if choice == 4 && g.inFor {
		choice = 0
	}
	switch choice {
	case 0, 1:
		g.printf("%s%s := %s;\n", in, g.variable(), g.expr(2))
	case 2:
		g.printf("%sv[%d] := %s;\n", in, g.r.Intn(8)+1, g.expr(2))
	case 3:
		g.printf("%sif %s then\n%sbegin\n", in, g.cond(1), in)
		g.stmt(in+"  ", depth-1)
		g.printf("%send\n%selse\n%sbegin\n", in, in, in)
		if depth > 0 {
			g.stmt(in+"  ", depth-1)
		}
		g.printf("%send;\n", in)
	case 4:
		g.printf("%sfor li := 1 to %d do\n%sbegin\n", in, g.r.Intn(6)+1, in)
		g.inFor = true
		g.stmt(in+"  ", 0)
		g.inFor = false
		g.printf("%send;\n", in)
	case 5:
		v := g.variable()
		g.printf("%scase abs(%s) mod 4 of\n", in, v)
		g.printf("%s  0: %s := %s;\n", in, v, g.expr(1))
		g.printf("%s  1, 2: %s := %s\n", in, v, g.expr(1))
		g.printf("%selse %s := -1\n%send;\n", in, v, in)
	case 6:
		flag := []string{"p", "q"}[g.r.Intn(2)]
		switch g.r.Intn(3) {
		case 0:
			g.printf("%s%s := %s;\n", in, flag, g.cond(1))
		case 1:
			g.printf("%s%s := p and q;\n", in, flag)
		default:
			g.printf("%s%s := not %s;\n", in, flag, flag)
		}
		v := g.variable()
		g.printf("%sif %s or (%s > %s) then %s := %s + 1;\n", in, flag, g.expr(0), g.expr(0), v, v)
	case 7:
		g.printf("%sh := %s mod 9999;\n", in, g.expr(1))
		v := g.variable()
		g.printf("%s%s := %s + h;\n", in, v, v)
	case 8:
		g.printf("%s%s := twice(%s) - %s;\n", in, g.variable(), g.expr(1), g.expr(0))
	case 9:
		g.printf("%sbump(abs(%s) mod 5);\n", in, g.expr(0))
	case 10:
		switch g.r.Intn(3) {
		case 0:
			g.printf("%sss := ss + [%d];\n", in, g.r.Intn(64))
		case 1:
			g.printf("%sss := ss + [abs(%s) mod 64];\n", in, g.expr(0))
		default:
			g.printf("%sss := ss - [%d];\n", in, g.r.Intn(64))
		}
		v := g.variable()
		g.printf("%sif %d in ss then %s := %s + 2;\n", in, g.r.Intn(64), v, v)
	default:
		g.printf("%swriteln(%s);\n", in, g.expr(1))
	}
}

// pascalProgram renders one random program whose main body has stmts
// top-level statements after a fixed prologue.
func pascalProgram(r *rand.Rand, stmts int) string {
	g := &progGen{r: r}
	g.sb.WriteString("program bench;\nvar a, b, c, d, li: integer;\n    v: array[1..8] of integer;\n")
	g.sb.WriteString("    p, q: boolean;\n    h: -9999..9999;\n    ss: set of 0..63;\n    gsum: integer;\n")
	g.sb.WriteString("function twice(n: integer): integer;\nbegin twice := n + n end;\n")
	g.sb.WriteString("procedure bump(k: integer);\nbegin\n  gsum := gsum + k;\n  if k > 1 then bump(k - 1)\nend;\n")
	g.sb.WriteString("begin\n  a := 3; b := 7; c := 11; d := 2;\n  p := true; q := false; h := 0; gsum := 0;\n")
	g.sb.WriteString("  for li := 1 to 8 do v[li] := li * 2;\n")
	for i := 0; i < stmts; i++ {
		g.stmt("  ", 2)
	}
	g.sb.WriteString("  a := a\nend.\n")
	return g.sb.String()
}

// skewedDraw returns n indices into a pool of size m, drawn from a Zipf
// distribution (exponent 1.2) over a seeded permutation of the pool, so
// a few programs dominate and a long tail recurs rarely.
func skewedDraw(r *rand.Rand, m, n int) []int {
	perm := r.Perm(m)
	z := rand.NewZipf(r, 1.2, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}
