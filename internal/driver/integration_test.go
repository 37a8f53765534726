package driver_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cogg/internal/driver"
	"cogg/internal/loader"
	"cogg/internal/rt370"
	"cogg/internal/shaper"
	"cogg/specs"
)

var (
	minOnce   sync.Once
	minTarget *driver.Target
	minErr    error
)

func minimalTarget(t *testing.T) *driver.Target {
	t.Helper()
	minOnce.Do(func() {
		minTarget, minErr = driver.NewTarget("amdahl-minimal.cogg", specs.AmdahlMinimal)
	})
	if minErr != nil {
		t.Fatalf("minimal target: %v", minErr)
	}
	return minTarget
}

// TestMinimalSpecSameSemantics compiles programs under both grammars and
// compares results: the minimal grammar emits more instructions but the
// same behavior ("without losing the guarantee of generating correct
// code", paper section 6).
func TestMinimalSpecSameSemantics(t *testing.T) {
	for name, src := range differentialPrograms {
		if name == "sets" {
			// The dynamic set productions differ in shape coverage.
			src = strings.Replace(src, "odd(i * i)", "odd(i)", 1)
		}
		t.Run(name, func(t *testing.T) {
			full, err := target(t).Compile(name, src, shaper.Options{})
			if err != nil {
				t.Fatalf("full compile: %v", err)
			}
			min, err := minimalTarget(t).Compile(name, src, shaper.Options{})
			if err != nil {
				t.Fatalf("minimal compile: %v", err)
			}
			cpuF, err := full.Run(nil, 2_000_000)
			if err != nil {
				t.Fatalf("full run: %v", err)
			}
			cpuM, err := min.Run(nil, 2_000_000)
			if err != nil {
				t.Fatalf("minimal run: %v\n%s", err, min.Listing())
			}
			for _, v := range full.Source.Main.Locals {
				addr, _ := full.VarAddr(v.Name)
				for off := int64(0); off < v.Type.Size(); off++ {
					a, _ := cpuF.Byte(addr + uint32(off))
					b, _ := cpuM.Byte(addr + uint32(off))
					if a != b {
						t.Fatalf("%s+%d: full %#x vs minimal %#x", v.Name, off, a, b)
					}
				}
			}
			if min.Prog.InstructionCount() < full.Prog.InstructionCount() {
				t.Errorf("minimal grammar produced better code (%d vs %d)?",
					min.Prog.InstructionCount(), full.Prog.InstructionCount())
			}
		})
	}
}

// TestLongBranchesExecute builds a program whose branches span more than
// one 4096-byte page and runs it: the long form (load target address,
// branch via register) must behave exactly like the short form.
func TestLongBranchesExecute(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("program big;\nvar x, y: integer;\nbegin\n  x := 0; y := 0;\n")
	const blocks = 320
	for i := 0; i < blocks; i++ {
		// Alternating arms keep branches conditional in both directions.
		fmt.Fprintf(&sb, "  if y <= %d then x := x + %d else y := y + 1;\n", i%5, i%9+1)
	}
	sb.WriteString("  y := x\nend.\n")
	c, err := target(t).Compile("big.pas", sb.String(), shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Prog.CodeSize <= 4096 {
		t.Fatalf("program too small to exercise long branches: %d bytes", c.Prog.CodeSize)
	}
	long := 0
	for i := range c.Prog.Instrs {
		if c.Prog.Instrs[i].Long {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no long branches generated")
	}
	cpu, err := c.Run(nil, 5_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Compute the expected result in Go.
	x, y := 0, 0
	for i := 0; i < blocks; i++ {
		if y <= i%5 {
			x += i%9 + 1
		} else {
			y++
		}
	}
	got, _ := driver.Word(cpu, c, "y")
	if got != int32(x) {
		t.Errorf("y = %d, want %d (%d long branches)", got, x, long)
	}
}

// TestDeckRoundTripExecution writes the object deck as 80-column card
// images, reads it back, loads it, and executes — the full loader path.
func TestDeckRoundTripExecution(t *testing.T) {
	src := `
program deck;
var a, b, q: integer;
begin
  a := 355; b := 113;
  q := (a * 1000) div b
end.
`
	c, err := target(t).Compile("deck.pas", src, shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cards bytes.Buffer
	if err := c.Deck.WriteCards(&cards); err != nil {
		t.Fatal(err)
	}
	back, err := loader.ReadCards(&cards)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := rt370.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.LoadInto(cpu.Mem, 0); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got, _ := driver.Word(cpu, c, "q")
	if got != 3141 {
		t.Errorf("q = %d, want 3141", got)
	}
}

// TestCaseThroughBranchTable executes a case statement whose dispatch
// goes through the in-code branch table (label_pntr address constants
// loaded via the literal pool).
func TestCaseThroughBranchTable(t *testing.T) {
	src := `
program tbl;
var i, sum: integer;
begin
  sum := 0;
  for i := 0 to 6 do
    case i of
      0: sum := sum + 1;
      1, 2: sum := sum + 10;
      4: sum := sum + 100;
      6: sum := sum + 1000
    else sum := sum - 1
    end
end.
`
	c, err := target(t).Compile("tbl.pas", src, shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := c.Run(nil, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, c.Listing())
	}
	// i=0:+1, 1:+10, 2:+10, 3:else -1, 4:+100, 5:else -1, 6:+1000.
	got, _ := driver.Word(cpu, c, "sum")
	if got != 1119 {
		t.Errorf("sum = %d, want 1119", got)
	}
}

// TestSerializedTablesDriveGenerator: the encode/decode path produces a
// working code generator (the tables are the product, not the process).
func TestSerializedTablesDriveGenerator(t *testing.T) {
	cg := target(t).CG
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	mod, err := decodeModule(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := newGenerator(mod)
	if err != nil {
		t.Fatal(err)
	}
	src := `program p; var x: integer; begin x := 6 * 7 end.`
	prog, _ := parsePascal(t, src)
	shaped, err := shaper.Shape(prog, shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	asmProg, _, err := gen2.Generate("P", shaped.Linearize())
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Finish(asmProg, shaped, rt370.Machine())
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := c.Run(nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := driver.Word(cpu, c, "x"); got != 42 {
		t.Errorf("x = %d", got)
	}
}
