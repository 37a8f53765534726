package codegen_test

import (
	"strings"
	"testing"

	"cogg/internal/ir"
)

// Allocation gates for the emission hot path: a warmed-up Session must
// translate IF streams with zero heap allocations, which bounds both
// the per-reduction and the per-shift cost at exactly zero. The gates
// run real translations through the full amdahl470 tables so every
// production plan path (register allocation, semantic intervention,
// operand resolution, instruction emission) is exercised.

// allocIF builds a reduction-heavy IF stream: n statements cycling
// through arithmetic that allocates plain registers and even/odd pairs,
// intervenes semantically (division, modulo, maximum), and frees them.
func allocIF(t *testing.T, n int) []ir.Token {
	t.Helper()
	exprs := []string{"iadd", "isub", "idiv", "imod", "imax"}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("statement stmt." + string(rune('1'+i%9)) + " ")
		sb.WriteString("assign fullword dsp.96 r.13 " +
			exprs[i%len(exprs)] + " fullword dsp.100 r.13 fullword dsp.104 r.13 ")
	}
	toks, err := ir.ParseTokens(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// shiftIF builds a shift-heavy IF stream: one deeply left-nested sum,
// linearized in prefix form as a long run of operators, so the parse
// stack grows deep before the reductions unwind it.
func shiftIF(t *testing.T, depth int) []ir.Token {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("assign fullword dsp.96 r.13 ")
	for i := 0; i < depth; i++ {
		sb.WriteString("iadd ")
	}
	sb.WriteString("fullword dsp.100 r.13 fullword dsp.104 r.13")
	for i := 1; i < depth; i++ {
		sb.WriteString(" fullword dsp.108 r.13")
	}
	toks, err := ir.ParseTokens(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func sessionAllocs(t *testing.T, toks []ir.Token) (perRun float64, reductions int) {
	t.Helper()
	g := amdahlGen(t)
	s, err := g.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: grow the stack, arena, pushback, and map buckets to the
	// workload's working size.
	for i := 0; i < 3; i++ {
		if _, _, err := s.Generate("warm", toks); err != nil {
			t.Fatal(err)
		}
	}
	var res struct{ reductions int }
	perRun = testing.AllocsPerRun(20, func() {
		_, r, err := s.Generate("steady", toks)
		if err != nil {
			t.Fatal(err)
		}
		res.reductions = r.Reductions
	})
	return perRun, res.reductions
}

func TestZeroAllocSteadyStateReductions(t *testing.T) {
	toks := allocIF(t, 24)
	allocs, reductions := sessionAllocs(t, toks)
	if reductions == 0 {
		t.Fatal("workload performed no reductions")
	}
	if allocs != 0 {
		t.Errorf("steady-state translation allocates: %.1f allocs/run over %d reductions (%.4f per reduction), want 0",
			allocs, reductions, allocs/float64(reductions))
	}
}

func TestZeroAllocSteadyStateShifts(t *testing.T) {
	toks := shiftIF(t, 24)
	allocs, _ := sessionAllocs(t, toks)
	if allocs != 0 {
		t.Errorf("shift-heavy translation allocates: %.1f allocs/run, want 0", allocs)
	}
}

// TestSessionResetReleasesOperands: a reused session's code buffer
// keeps its capacity, but after a large run followed by a small one no
// slot past the small run's instructions still holds an operand slice —
// such a slice would keep alive every operand arena chunk the large
// run grew through.
func TestSessionResetReleasesOperands(t *testing.T) {
	s, err := amdahlGen(t).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := s.Generate("big", allocIF(t, 400))
	if err != nil {
		t.Fatal(err)
	}
	bigLen := len(big.Instrs)
	prog, _, err := s.Generate("small", allocIF(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) >= bigLen {
		t.Fatalf("small run emitted %d instructions, large run %d", len(prog.Instrs), bigLen)
	}
	spare := prog.Instrs[len(prog.Instrs):cap(prog.Instrs)]
	if len(spare) < bigLen-len(prog.Instrs) {
		t.Fatalf("code buffer did not keep the large run's capacity (%d spare slots)", len(spare))
	}
	for i := range spare {
		if spare[i].Opds != nil {
			t.Fatalf("spare slot %d still holds an operand slice", len(prog.Instrs)+i)
		}
	}
}
