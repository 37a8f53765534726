package core_test

import (
	"bytes"
	"strings"
	"testing"

	"cogg/internal/core"
	"cogg/internal/lr"
	"cogg/internal/tables"
	"cogg/specs"
)

func generate(t *testing.T, name, src string) *core.CodeGenerator {
	t.Helper()
	cg, err := core.Generate(name, src)
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	return cg
}

// TestAmdahlSpecBuilds constructs the full Amdahl 470 tables and checks
// the statistics have the Table 1 shape: hundreds of states, tens of
// thousands of entries, under half of them significant.
func TestAmdahlSpecBuilds(t *testing.T) {
	cg := generate(t, "amdahl470.cogg", specs.Amdahl470)
	s := cg.ComputeStats()
	t.Logf("\n%s", cg.Table1())
	if s.Productions < 120 {
		t.Errorf("productions = %d, want a full-scale grammar (>= 120)", s.Productions)
	}
	if s.Templates < s.Productions {
		t.Errorf("templates = %d < productions = %d", s.Templates, s.Productions)
	}
	if s.States < 200 {
		t.Errorf("states = %d, want hundreds", s.States)
	}
	if s.Entries < 10000 {
		t.Errorf("entries = %d, want tens of thousands", s.Entries)
	}
	if s.SignificantEntries <= 0 || s.SignificantEntries >= s.Entries {
		t.Errorf("significant entries = %d of %d", s.SignificantEntries, s.Entries)
	}
	if s.SemanticOps < 20 {
		t.Errorf("semantic operators = %d, want the full extension set", s.SemanticOps)
	}
}

// TestMinimalSpecSmaller verifies the size-control claim of the paper's
// conclusion: reducing the number of productions reduces the parse
// tables.
func TestMinimalSpecSmaller(t *testing.T) {
	full := generate(t, "amdahl470.cogg", specs.Amdahl470)
	min := generate(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	fs, ms := full.ComputeStats(), min.ComputeStats()
	if ms.Productions >= fs.Productions {
		t.Errorf("minimal productions %d >= full %d", ms.Productions, fs.Productions)
	}
	if ms.States >= fs.States {
		t.Errorf("minimal states %d >= full %d", ms.States, fs.States)
	}
	fb, err := full.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := min.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if mb.Compressed >= fb.Compressed {
		t.Errorf("minimal compressed table %d bytes >= full %d", mb.Compressed, fb.Compressed)
	}
}

// TestRiscSpecBuilds constructs the retargeting demonstration tables.
func TestRiscSpecBuilds(t *testing.T) {
	cg := generate(t, "risc32.cogg", specs.Risc32)
	if cg.ComputeStats().Productions < 30 {
		t.Errorf("risc32 productions = %d", cg.ComputeStats().Productions)
	}
}

// TestEncodeDecodeRoundTrip serializes the full module and reloads it.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cg := generate(t, "amdahl470.cogg", specs.Amdahl470)
	var buf bytes.Buffer
	sizes, err := cg.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sizes.Total != buf.Len() {
		t.Errorf("reported total %d != written %d", sizes.Total, buf.Len())
	}
	mod, err := tables.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Grammar.Syms) != len(cg.Grammar.Syms) {
		t.Errorf("decoded %d symbols, want %d", len(mod.Grammar.Syms), len(cg.Grammar.Syms))
	}
	if len(mod.Grammar.Prods) != len(cg.Grammar.Prods) {
		t.Errorf("decoded %d productions, want %d", len(mod.Grammar.Prods), len(cg.Grammar.Prods))
	}
	// Spot-check that the decoded packed table answers identically.
	for state := 0; state < cg.Table.NumStates; state += 7 {
		for sym := 0; sym < len(cg.Table.ColOf); sym += 3 {
			if got, want := mod.Packed.Lookup(state, sym), cg.Packed.Lookup(state, sym); got != want {
				t.Fatalf("decoded table disagrees at (%d,%d): %v vs %v", state, sym, got, want)
			}
		}
	}
}

// TestCompressionCorrect checks the packed table against the dense matrix
// for the full grammar, entry by entry.
func TestCompressionCorrect(t *testing.T) {
	cg := generate(t, "amdahl470.cogg", specs.Amdahl470)
	for state := 0; state < cg.Table.NumStates; state++ {
		for sym := 0; sym < len(cg.Table.ColOf); sym++ {
			dense := cg.Table.Lookup(state, sym)
			packed := cg.Packed.Lookup(state, sym)
			if dense.Kind() == lr.Error {
				if packed.Kind() != lr.Error {
					t.Fatalf("(%d,%d): packed has %v where dense is error", state, sym, packed)
				}
				continue
			}
			if packed != dense {
				t.Fatalf("(%d,%d): packed %v != dense %v", state, sym, packed, dense)
			}
		}
	}
}

// TestCompressionSmaller: the row-displacement table must be
// substantially smaller than the dense matrix (Table 2's ratio is 32.7
// pages vs 71.5).
func TestCompressionSmaller(t *testing.T) {
	cg := generate(t, "amdahl470.cogg", specs.Amdahl470)
	comp := cg.Packed.SizeBytes()
	unc := tables.UncompressedSizeBytes(cg.Table)
	if comp >= unc {
		t.Errorf("compressed %d bytes >= uncompressed %d", comp, unc)
	}
	t.Logf("compressed %.1f pages, uncompressed %.1f pages",
		tables.Pages(comp), tables.Pages(unc))
}

// TestTableReportsFormat: the Table 1/2 renderers produce the paper's
// row labels.
func TestTableReportsFormat(t *testing.T) {
	cg := generate(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	t1 := cg.Table1()
	for _, want := range []string{
		"i.    Number of symbols declared",
		"iii.  States in parsing automaton",
		"vii.  SDT templates",
		"ix.   Semantic operators",
	} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 lacks %q:\n%s", want, t1)
		}
	}
	t2, err := cg.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Template array", "Compressed parse table", "Uncompressed parse table"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 lacks %q:\n%s", want, t2)
		}
	}
}
