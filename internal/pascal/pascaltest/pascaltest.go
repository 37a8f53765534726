// Package pascaltest generates random Pascal programs for tests and
// benchmarks across packages.
package pascaltest

import (
	"fmt"
	"math/rand"
	"strings"
)

// progGen builds random integer Pascal programs. Divisors are always
// nonzero; loops are bounded; everything else — operator mix, nesting,
// subscripts, conditions — is random. The driver package's
// differential fuzzer requires every backend to agree on them byte for
// byte; the listing tests and benchmark use them as a fixed corpus.
type progGen struct {
	r     *rand.Rand
	vars  []string
	sb    strings.Builder
	inFor bool
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprint(g.r.Intn(90) + 1)
		case 1:
			return g.vars[g.r.Intn(len(g.vars))]
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
		return "(" + l + " div " + fmt.Sprint(g.r.Intn(9)+1) + ")"
	case 4:
		return "(" + l + " mod " + fmt.Sprint(g.r.Intn(9)+1) + ")"
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
		return base + " and " + "(" + g.expr(depth) + " < " + g.expr(depth) + ")"
	case 1:
		return base + " or " + "(" + g.expr(depth) + " > " + g.expr(depth) + ")"
	case 2:
		return "not " + base
	default:
		return base
	}
}

func (g *progGen) stmt(indent string, depth int) {
	choice := g.r.Intn(12)
	if choice == 4 && g.inFor {
		choice = 0 // the loop counter is shared; never nest for-loops
	}
	switch choice {
	case 0, 1:
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%s%s := %s;\n", indent, v, g.expr(2))
	case 2:
		fmt.Fprintf(&g.sb, "%sv[%d] := %s;\n", indent, g.r.Intn(8)+1, g.expr(2))
	case 3:
		fmt.Fprintf(&g.sb, "%sif %s then\n", indent, g.cond(1))
		fmt.Fprintf(&g.sb, "%sbegin\n", indent)
		g.stmt(indent+"  ", depth-1)
		fmt.Fprintf(&g.sb, "%send\n", indent)
		fmt.Fprintf(&g.sb, "%selse\n", indent)
		fmt.Fprintf(&g.sb, "%sbegin\n", indent)
		if depth > 0 {
			g.stmt(indent+"  ", depth-1)
		}
		fmt.Fprintf(&g.sb, "%send;\n", indent)
	case 4:
		loopVar := "li" // dedicated loop counter avoids clobbering
		fmt.Fprintf(&g.sb, "%sfor %s := 1 to %d do\n", indent, loopVar, g.r.Intn(6)+1)
		fmt.Fprintf(&g.sb, "%sbegin\n", indent)
		g.inFor = true
		g.stmt(indent+"  ", 0)
		g.inFor = false
		fmt.Fprintf(&g.sb, "%send;\n", indent)
	case 5:
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%scase abs(%s) mod 4 of\n", indent, v)
		fmt.Fprintf(&g.sb, "%s  0: %s := %s;\n", indent, v, g.expr(1))
		fmt.Fprintf(&g.sb, "%s  1, 2: %s := %s\n", indent, v, g.expr(1))
		fmt.Fprintf(&g.sb, "%selse %s := -1\n%send;\n", indent, v, indent)
	case 6:
		// Boolean machinery: flags plus a conditional consuming them.
		flag := []string{"p", "q"}[g.r.Intn(2)]
		switch g.r.Intn(3) {
		case 0:
			fmt.Fprintf(&g.sb, "%s%s := %s;\n", indent, flag, g.cond(1))
		case 1:
			fmt.Fprintf(&g.sb, "%s%s := p and q;\n", indent, flag)
		default:
			fmt.Fprintf(&g.sb, "%s%s := not %s;\n", indent, flag, flag)
		}
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%sif %s or (%s > %s) then %s := %s + 1;\n",
			indent, flag, g.expr(0), g.expr(0), v, v)
	case 7:
		// Halfword traffic: assignments truncate through STH.
		fmt.Fprintf(&g.sb, "%sh := %s mod 9999;\n", indent, g.expr(1))
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%s%s := %s + h;\n", indent, v, v)
	case 8:
		// A function call in an expression.
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%s%s := twice(%s) - %s;\n", indent, v, g.expr(1), g.expr(0))
	case 9:
		// A procedure mutating globals, possibly recursively.
		fmt.Fprintf(&g.sb, "%sbump(abs(%s) mod 5);\n", indent, g.expr(0))
	case 10:
		// Set traffic: insert/remove/check membership.
		e := g.r.Intn(64)
		switch g.r.Intn(3) {
		case 0:
			fmt.Fprintf(&g.sb, "%sss := ss + [%d];\n", indent, e)
		case 1:
			fmt.Fprintf(&g.sb, "%sss := ss + [abs(%s) mod 64];\n", indent, g.expr(0))
		default:
			fmt.Fprintf(&g.sb, "%sss := ss - [%d];\n", indent, e)
		}
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.sb, "%sif %d in ss then %s := %s + 2;\n", indent, g.r.Intn(64), v, v)
	default:
		fmt.Fprintf(&g.sb, "%swriteln(%s);\n", indent, g.expr(1))
	}
}

// Program renders the random program for one seed. The same seed
// always yields the same source.
func Program(seed int64) string {
	g := &progGen{
		r:    rand.New(rand.NewSource(seed)),
		vars: []string{"a", "b", "c", "d"},
	}
	g.sb.WriteString("program fuzz;\nvar a, b, c, d, li: integer;\n    v: array[1..8] of integer;\n")
	g.sb.WriteString("    p, q: boolean;\n    h: -9999..9999;\n    ss: set of 0..63;\n    gsum: integer;\n")
	g.sb.WriteString("function twice(n: integer): integer;\nbegin twice := n + n end;\n")
	g.sb.WriteString("procedure bump(k: integer);\nbegin\n  gsum := gsum + k;\n  if k > 1 then bump(k - 1)\nend;\n")
	g.sb.WriteString("begin\n  a := 3; b := 7; c := 11; d := 2;\n  p := true; q := false; h := 0; gsum := 0;\n")
	g.sb.WriteString("  for li := 1 to 8 do v[li] := li * 2;\n")
	n := 4 + g.r.Intn(6)
	for i := 0; i < n; i++ {
		g.stmt("  ", 2)
	}
	g.sb.WriteString("  a := a\nend.\n")
	return g.sb.String()
}
