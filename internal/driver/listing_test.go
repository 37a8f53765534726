package driver_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cogg/internal/asm"
	"cogg/internal/driver"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/loader"
	"cogg/internal/oracle"
	"cogg/internal/pascal/pascaltest"
	"cogg/internal/risc32"
	"cogg/internal/s370"
	"cogg/internal/shaper"
	"cogg/specs"
)

// listingCorpusSHA256 is the SHA-256 of the concatenated listings of
// listingCorpus, as rendered by the fmt-based formatter that the
// append-style one replaced. A formatting drift anywhere in the corpus
// changes it.
const listingCorpusSHA256 = "01aa0755d261b9904ecd5cc24de5ed9c4677f9cb07ca604e463094a558b50f6e"

// deckCorpusSHA256 is the SHA-256 of the concatenated card decks of
// listingCorpus's Pascal programs, computed while every compile still
// ran on a fresh code generation session. A drift in code, layout,
// literal pool or loader output anywhere in the corpus changes it.
const deckCorpusSHA256 = "01efacd17a8f6466eb380a0a8e8cd1552b4333162d6158cc0c814996f88262f7"

// gcdProgram is the program of the risc32 retargeting example
// (examples/retarget).
const gcdProgram = `
program gcd;
var a, b, t, result: integer;
begin
  a := 1071; b := 462;
  while b > 0 do
  begin
    t := a mod b;
    a := b;
    b := t
  end;
  result := a
end.
`

type listed struct {
	name string
	prog *asm.Program
	m    asm.Machine
	deck *loader.Deck // nil for the oracle's raw-IF witness programs
}

// listingCorpus compiles the pinned listing corpus: the 40 random
// programs of the differential fuzzer, the server's Appendix 1 and
// sieve test programs, the oracle's amdahl470 witness programs, and
// the retargeting example on both targets.
func listingCorpus(t *testing.T) []listed {
	t.Helper()
	full := target(t)
	var out []listed
	compile := func(tgt *driver.Target, name, src string) {
		c, err := tgt.Compile(name, src, shaper.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, listed{name, c.Prog, c.Machine, c.Deck})
	}
	for seed := int64(1); seed <= 40; seed++ {
		compile(full, fmt.Sprintf("fuzz%d.pas", seed), pascaltest.Program(seed))
	}
	for _, name := range []string{"appendix1.pas", "sieve.pas"} {
		src, err := os.ReadFile(filepath.Join("..", "server", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		compile(full, name, string(src))
	}

	prime, err := ir.ParseTokens(oracle.DefaultPriming("amdahl470.cogg"))
	if err != nil {
		t.Fatal(err)
	}
	verify := func(toks []ir.Token) ([]int, error) {
		_, res, err := full.Gen.Generate("witness", toks)
		if err != nil {
			return nil, err
		}
		return res.ProdCounts, nil
	}
	c, err := oracle.Generate(oracle.New(full.Mod), 42, 0, oracle.CorpusOptions{
		Walk: oracle.WalkConfig{Priming: prime}, Verify: verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, toks := range c.Programs {
		name := fmt.Sprintf("witness%d", i)
		prog, _, err := full.Gen.Generate(name, toks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := labels.Layout(prog, full.Machine); err != nil {
			t.Fatalf("%s: layout: %v", name, err)
		}
		out = append(out, listed{name, prog, full.Machine, nil})
	}

	risc, err := driver.NewTargetWithConfig("risc32.cogg", specs.Risc32, driver.RiscConfig())
	if err != nil {
		t.Fatal(err)
	}
	compile(full, "gcd.pas", gcdProgram)
	compile(risc, "gcd.pas", gcdProgram)
	return out
}

// TestListingGolden pins the listing text of the whole corpus.
func TestListingGolden(t *testing.T) {
	h := sha256.New()
	corpus := listingCorpus(t)
	for _, l := range corpus {
		h.Write([]byte(asm.Listing(l.prog, l.m)))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != listingCorpusSHA256 {
		t.Errorf("listing of %d programs hashes to %s, want %s", len(corpus), got, listingCorpusSHA256)
	}
}

// TestDeckGolden pins the object decks of the corpus's Pascal programs.
func TestDeckGolden(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, l := range listingCorpus(t) {
		if l.deck == nil {
			continue
		}
		if err := l.deck.WriteCards(h); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		n++
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != deckCorpusSHA256 {
		t.Errorf("decks of %d programs hash to %s, want %s", n, got, deckCorpusSHA256)
	}
}

// TestListingMatchesFmtReference renders the corpus and a table of edge
// cases with asm.Listing and with fmtListing, and requires identical
// text. Each instruction is also formatted onto a non-empty buffer, so
// padding that miscounts from the start of dst shows up.
func TestListingMatchesFmtReference(t *testing.T) {
	check := func(name string, p *asm.Program, m asm.Machine) {
		t.Helper()
		if got, want := asm.Listing(p, m), fmtListing(p, m); got != want {
			t.Errorf("%s on %s: listing differs at line %d\n--- got ---\n%s--- want ---\n%s",
				name, m.Name(), firstDiffLine(got, want), got, want)
		}
		for i := range p.Instrs {
			in := &p.Instrs[i]
			got := string(m.AppendFormat([]byte("prefix "), in))
			if want := "prefix " + fmtFormat(m, in); got != want {
				t.Errorf("%s on %s: instruction %d formats as %q, want %q", name, m.Name(), i, got, want)
			}
		}
	}
	for _, l := range listingCorpus(t) {
		check(l.name, l.prog, l.m)
	}
	for _, p := range edgePrograms() {
		for _, m := range []asm.Machine{s370.NewMachine(0x8000), &risc32.Machine{}} {
			check(p.Name, p, m)
		}
	}
}

func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// edgePrograms builds listings that the compiled corpus never produces:
// label pile-ups, out-of-range labels, unknown and long mnemonics,
// every operand kind in every position, and addresses at the edges of
// the %08x field.
func edgePrograms() []*asm.Program {
	var progs []*asm.Program
	add := func(name string, origin int, instrs []asm.Instr, lbls map[int64]int) {
		p := asm.NewProgram(name)
		p.Origin = origin
		for _, in := range instrs {
			p.Append(in)
		}
		for id, ix := range lbls {
			p.Labels[id] = ix
		}
		progs = append(progs, p)
	}
	ops := func(op string, opds ...asm.Operand) asm.Instr { return asm.Instr{Op: op, Opds: opds} }
	commented := func(in asm.Instr, c string) asm.Instr { in.Comment = c; return in }
	at := func(in asm.Instr, addr int) asm.Instr { in.Addr = addr; return in }

	add("empty", 0, nil, nil)
	add("labels only", 0, nil, map[int64]int{2: 0, 1: 0, -1: 0, 9: 3})
	add("labels", 0x1000, []asm.Instr{
		ops("lr", asm.R(1), asm.R(2)),
		{Pseudo: asm.LabelMark, Label: 4, Comment: "never printed"},
		ops("ar", asm.R(3), asm.R(4)),
	}, map[int64]int{
		// Several labels on one instruction, out of id order.
		30: 0, 2: 0, 11: 0,
		// A label on a LabelMark.
		4: 1,
		// Generator-internal ids stay out of the listing.
		-3: 2, -1: 3,
		// Labels at len(Instrs); beyond it or before the first
		// instruction, they never print.
		7: 3, 5: 3, 8: 4, 6: -1,
	})
	add("pseudo", 0x20, []asm.Instr{
		{Pseudo: asm.Branch, Cond: 8, Label: 4},
		{Pseudo: asm.Branch, Cond: 15, Label: 123456, Long: true, Scratch: 1, Comment: "long branch"},
		{Pseudo: asm.Branch, Cond: 0, Label: -2},
		{Pseudo: asm.CaseLoad, Label: 3, IndexR: 2, Scratch: 14},
		{Pseudo: asm.AddrConst, Label: 77, Comment: "table entry"},
		{Pseudo: asm.LabelMark, Label: 9},
	}, map[int64]int{4: 5})
	add("operands", 0x2000, []asm.Instr{
		ops("bc", asm.I(15), asm.M(100, 0, 15)), // mask immediate
		ops("bcr", asm.I(8), asm.R(14)),
		ops("bc", asm.I(20), asm.M(-4, 3, 0)),
		ops("stm", asm.R(14), asm.I(12), asm.M(12, 0, 13)), // immediate in a register position
		ops("lm", asm.I(16), asm.I(-1), asm.M(0, 0, 0)),
		ops("l", asm.I(3), asm.M(8, 3, 0)),   // index-only Mem
		ops("st", asm.R(3), asm.M(8, 0, 13)), // base-only Mem
		ops("la", asm.R(3), asm.M(-8, 2, 13)),
		ops("sla", asm.R(2), asm.I(3)), // shift amount, not a register
		ops("srda", asm.I(4), asm.M(7, 0, 5)),
		ops("mvc", asm.ML(0, 7, 1), asm.M(-12, 0, 2)),
		ops("clc", asm.ML(-8, 255, 0), asm.M(4, 0, 0)),
		ops("mvi", asm.M(3, 0, 13), asm.I(255)),
		ops("ar", asm.I(5), asm.I(-5)),
		ops("call", asm.L(42), asm.R(0)),
		ops("ret"),
		ops("sr", asm.Operand{Kind: asm.OpdKind(9)}, asm.R(1)),
		ops("addi", asm.R(1), asm.R(2), asm.I(-32768)),
		ops("ldw", asm.R(1), asm.M(-4, 3, 13)),
		ops("cmp", asm.R(1), asm.I(0)),
	}, nil)
	long := func(n int) string { return strings.Repeat("x", n) }
	add("padding", 0x30, []asm.Instr{
		commented(ops("bxle", asm.R(1), asm.R(2), asm.M(0, 0, 3)), "4-char op"),
		commented(ops("sllxx", asm.R(1)), "5-char op"),
		commented(ops("longmnemonic", asm.R(1), asm.R(2)), "op longer than 5"),
		commented(ops(long(34)), "35 chars"),
		commented(ops(long(35)), "36 chars"),
		commented(ops(long(36)), "37 chars"),
		commented(ops(long(50), asm.R(1)), "well past the column"),
		ops(long(40)),
		commented(ops("µop", asm.R(1)), "padding counts runes"),
		commented(ops("l", asm.R(1), asm.M(0, 0, 13)), "fitted comment ⟶ µ"),
		ops(""),
	}, nil)
	add("addresses", 0, []asm.Instr{
		at(ops("lr", asm.R(1), asm.R(1)), 0),
		at(ops("lr", asm.R(1), asm.R(1)), 0xFFFFFFF),
		at(ops("lr", asm.R(1), asm.R(1)), 0x10000000),
		at(ops("lr", asm.R(1), asm.R(1)), 0xFFFFFFFF),
		at(ops("lr", asm.R(1), asm.R(1)), 0x123456789),
		at(ops("lr", asm.R(1), asm.R(1)), -1),
	}, nil)
	add("negative origin", -0x10, []asm.Instr{ops("lr", asm.R(1), asm.R(1))}, nil)
	add("", 0x7fffffff, []asm.Instr{ops("lr", asm.R(1), asm.R(1))}, nil)
	return progs
}

// The fmt-based renderer that asm.Listing and the machines' AppendFormat
// replaced, kept verbatim as the reference.

func fmtListing(p *asm.Program, m asm.Machine) string {
	labelAt := map[int][]int64{}
	for id, ix := range p.Labels {
		if id >= 0 {
			labelAt[ix] = append(labelAt[ix], id)
		}
	}
	for _, ids := range labelAt {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	var b strings.Builder
	fmt.Fprintf(&b, "* %s  (%s, origin %#x)\n", p.Name, m.Name(), p.Origin)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, id := range labelAt[i] {
			fmt.Fprintf(&b, "L%d:\n", id)
		}
		if in.Pseudo == asm.LabelMark {
			continue
		}
		text := fmtFormat(m, in)
		if in.Comment != "" {
			fmt.Fprintf(&b, "%08x  %-36s %s\n", in.Addr, text, in.Comment)
		} else {
			fmt.Fprintf(&b, "%08x  %s\n", in.Addr, text)
		}
	}
	for _, id := range labelAt[len(p.Instrs)] {
		fmt.Fprintf(&b, "L%d:\n", id)
	}
	return b.String()
}

func fmtFormat(m asm.Machine, in *asm.Instr) string {
	switch m.(type) {
	case *s370.Machine:
		return fmtS370(in)
	case *risc32.Machine:
		return fmtRisc32(in)
	}
	panic("no reference formatter for " + m.Name())
}

func fmtS370(in *asm.Instr) string {
	switch in.Pseudo {
	case asm.LabelMark:
		return fmt.Sprintf("L%d equ *", in.Label)
	case asm.AddrConst:
		return fmt.Sprintf("dc    a(L%d)", in.Label)
	case asm.Branch:
		form := "bc "
		if in.Long {
			form = "bc*"
		}
		return fmt.Sprintf("%s   %d,L%d", form, in.Cond, in.Label)
	case asm.CaseLoad:
		return fmt.Sprintf("case  L%d(r%d),r%d", in.Label, in.IndexR, in.Scratch)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s ", in.Op)
	for i, o := range in.Opds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmtS370Operand(in, i, o))
	}
	return b.String()
}

func fmtS370Operand(in *asm.Instr, i int, o asm.Operand) string {
	info, _ := s370.Lookup(in.Op)
	switch o.Kind {
	case asm.Reg:
		return fmt.Sprintf("r%d", o.Reg)
	case asm.Imm:
		if i == 0 && info.Mask {
			return fmt.Sprint(o.Val)
		}
		if fmtRegPosition(info, i) && o.Val >= 0 && o.Val <= 15 {
			return fmt.Sprintf("r%d", o.Val)
		}
		return fmt.Sprint(o.Val)
	case asm.Mem:
		switch {
		case o.Index != 0 && o.Base != 0:
			return fmt.Sprintf("%d(r%d,r%d)", o.Val, o.Index, o.Base)
		case o.Index != 0:
			return fmt.Sprintf("%d(r%d,r0)", o.Val, o.Index)
		case o.Base != 0:
			return fmt.Sprintf("%d(r%d)", o.Val, o.Base)
		default:
			return fmt.Sprint(o.Val)
		}
	case asm.MemLen:
		return fmt.Sprintf("%d(%d,r%d)", o.Val, o.Len, o.Base)
	case asm.LabelOp:
		return fmt.Sprintf("L%d", o.Val)
	}
	return "?"
}

func fmtRegPosition(info s370.OpInfo, i int) bool {
	switch info.Format {
	case s370.RR:
		return true
	case s370.RX:
		return i == 0
	case s370.RS:
		return !info.Shift && i <= 1 || info.Shift && i == 0
	}
	return false
}

func fmtRisc32(in *asm.Instr) string {
	switch in.Pseudo {
	case asm.LabelMark:
		return fmt.Sprintf("L%d:", in.Label)
	case asm.AddrConst:
		return fmt.Sprintf(".word L%d", in.Label)
	case asm.Branch:
		return fmt.Sprintf("b.%d  L%d", in.Cond, in.Label)
	case asm.CaseLoad:
		return fmt.Sprintf("case  L%d[r%d],r%d", in.Label, in.IndexR, in.Scratch)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s ", in.Op)
	for i, o := range in.Opds {
		if i > 0 {
			b.WriteByte(',')
		}
		switch o.Kind {
		case asm.Reg:
			fmt.Fprintf(&b, "r%d", o.Reg)
		case asm.Imm:
			fmt.Fprintf(&b, "%d", o.Val)
		case asm.Mem:
			fmt.Fprintf(&b, "%d(r%d)", o.Val, o.Base)
		}
	}
	return b.String()
}
