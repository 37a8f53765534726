// Package driver assembles the complete compiler pipeline: Pascal front
// end, shaper, IF optimizer, table-driven code generator, label
// resolution, and the Loader Record Generator — and runs the result on
// the S/370 simulator. The command line tools, examples, tests, and
// benchmarks all build on it.
package driver

import (
	"context"
	"fmt"
	"sort"

	"cogg/internal/asm"
	"cogg/internal/codegen"
	"cogg/internal/core"
	"cogg/internal/cse"
	"cogg/internal/handwritten"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/loader"
	"cogg/internal/obs"
	"cogg/internal/pascal"
	"cogg/internal/regalloc"
	"cogg/internal/risc32"
	"cogg/internal/rt370"
	"cogg/internal/s370/sim"
	"cogg/internal/shaper"
	"cogg/internal/tables"
)

// Target is a ready-to-use code generator for the S/370 runtime.
//
// CG is non-nil only for targets built by running the table constructor
// (NewTarget, NewTargetWithConfig); a target reconstituted from a
// serialized table module (NewTargetFromModule) carries the decoded
// module in Mod instead, and Table 1 statistics are unavailable.
type Target struct {
	CG      *core.CodeGenerator
	Mod     *tables.Module
	Gen     *codegen.Generator
	Machine asm.Machine
}

// Translator returns t.Gen. The serving benchmark's layer replayer
// (perfbench) is its only caller; code in this module uses t.Gen.
func (t *Target) Translator() *codegen.Generator { return t.Gen }

// NewTarget runs CoGG over a specification and instantiates the
// generated code generator with the standard S/370 configuration.
func NewTarget(specName, specSrc string) (*Target, error) {
	return NewTargetWithConfig(specName, specSrc, rt370.Config())
}

// NewTargetWithConfig runs CoGG with an explicit target configuration.
func NewTargetWithConfig(specName, specSrc string, cfg codegen.Config) (*Target, error) {
	cg, err := core.Generate(specName, specSrc)
	if err != nil {
		return nil, err
	}
	gen, err := cg.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return &Target{CG: cg, Mod: cg.Module(), Gen: gen, Machine: cfg.Machine}, nil
}

// NewTargetFromModule instantiates the code generator from a decoded
// table module, skipping SLR table construction entirely — the warm
// path of the batch compilation service. The resulting target compiles
// programs exactly like one built from the specification source; only
// the construction-time artifacts (automaton, Table 1 statistics) are
// absent.
func NewTargetFromModule(mod *tables.Module, cfg codegen.Config) (*Target, error) {
	gen, err := codegen.New(mod, cfg)
	if err != nil {
		return nil, err
	}
	return &Target{Mod: mod, Gen: gen, Machine: cfg.Machine}, nil
}

// RiscConfig returns the configuration for the risc32 retargeting
// demonstration: the same shaper conventions, different emission
// routines and no even/odd pair class.
func RiscConfig() codegen.Config {
	return codegen.Config{
		Machine: &risc32.Machine{},
		Classes: []regalloc.Class{
			{Name: "r", Regs: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, Extra: []int{14, 15}},
			{Name: "cc", Flag: true},
		},
		MoveOp:         map[string]string{"r": "mov"},
		SaveOp:         map[cse.Width]string{cse.Full: "stw"},
		FindCommonType: map[cse.Width]string{cse.Full: ir.OpFullword},
		Origin:         rt370.CodeOrigin,
		PoolOrigin:     rt370.PoolOrigin,
	}
}

// Compiled is the result of compiling one Pascal program.
type Compiled struct {
	Source  *pascal.Program
	Shaped  *shaper.Shaped
	Tokens  []ir.Token
	Prog    *asm.Program
	Deck    *loader.Deck
	Result  *codegen.Result
	Machine asm.Machine
}

// Compile runs the full pipeline over Pascal source on a fresh code
// generation session, so the result may be kept indefinitely.
func (t *Target) Compile(name, source string, opt shaper.Options) (*Compiled, error) {
	return t.CompileWith(context.Background(), t.Gen, name, source, opt)
}

// CompileWith runs the full pipeline over Pascal source, translating on
// ses: t.Gen (a fresh session per call) or a caller-owned
// *codegen.Session. On a caller-owned session the result's Prog and
// Result alias session storage and stay valid only until the session's
// next translation; Source, Shaped, Tokens and Deck never do. A trace
// attached via obs.ContextWith gets one span per pipeline phase
// (frontend, shape, parse-reduce with its regalloc/emit children,
// assemble).
func (t *Target) CompileWith(ctx context.Context, ses codegen.EngineSession, name, source string, opt shaper.Options) (*Compiled, error) {
	_, end := obs.StartSpan(ctx, "frontend")
	prog, err := pascal.Parse(name, source)
	end()
	if err != nil {
		return nil, err
	}
	_, end = obs.StartSpan(ctx, "shape")
	shaped, err := shaper.Shape(prog, opt)
	end()
	if err != nil {
		return nil, err
	}
	return t.compileShaped(ctx, ses, prog, shaped)
}

// CompileShaped finishes the pipeline from shaped IF on a fresh session.
func (t *Target) CompileShaped(prog *pascal.Program, shaped *shaper.Shaped) (*Compiled, error) {
	return t.compileShaped(context.Background(), t.Gen, prog, shaped)
}

func (t *Target) compileShaped(ctx context.Context, ses codegen.EngineSession, prog *pascal.Program, shaped *shaper.Shaped) (*Compiled, error) {
	toks := shaped.Linearize()
	asmProg, res, err := ses.GenerateCtx(ctx, shaped.Name, toks)
	if err != nil {
		return nil, err
	}
	_, end := obs.StartSpan(ctx, "assemble")
	c, err := Finish(asmProg, shaped, t.Machine)
	end()
	if err != nil {
		return nil, err
	}
	c.Source = prog
	c.Tokens = toks
	c.Result = res
	return c, nil
}

// CompileHandwritten runs the hand-written baseline generator over
// already-shaped IF, producing a Compiled comparable to the table-driven
// result.
func CompileHandwritten(shaped *shaper.Shaped, m asm.Machine) (*Compiled, error) {
	asmProg, err := handwritten.Generate(shaped.Name, shaped.Stmts)
	if err != nil {
		return nil, err
	}
	return Finish(asmProg, shaped, m)
}

// Finish lays out a code buffer, builds the object deck, and installs
// the transfer vector and literal storage.
func Finish(asmProg *asm.Program, shaped *shaper.Shaped, m asm.Machine) (*Compiled, error) {
	if err := labels.Layout(asmProg, m); err != nil {
		return nil, err
	}
	if len(asmProg.Pool) > rt370.PoolCap {
		return nil, fmt.Errorf("driver: %d literal-pool slots exceed the pr partition (%d)",
			len(asmProg.Pool), rt370.PoolCap)
	}
	deck, err := loader.Build(asmProg, m)
	if err != nil {
		return nil, err
	}
	// The procedure transfer vector and the shaper's literal storage are
	// object text in the runtime constant area. Both live in maps keyed
	// by offset; emit them in offset order so the deck is byte-for-byte
	// reproducible across runs.
	for _, off := range sortedKeys(shaped.VectorSlot) {
		lbl := shaped.VectorSlot[off]
		addr, err := asmProg.LabelAddr(lbl)
		if err != nil {
			return nil, fmt.Errorf("driver: transfer vector slot %#x: %w", off, err)
		}
		word := []byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}
		deck.Texts = append(deck.Texts, loader.Text{Addr: rt370.PrOrigin + off, Data: word})
		deck.Relocs = append(deck.Relocs, loader.Reloc{Addr: rt370.PrOrigin + off})
	}
	for _, off := range sortedKeys(shaped.PrInit) {
		word := shaped.PrInit[off]
		deck.Texts = append(deck.Texts, loader.Text{
			Addr: rt370.PrOrigin + off,
			Data: []byte{byte(word >> 24), byte(word >> 16), byte(word >> 8), byte(word)},
		})
	}
	return &Compiled{
		Shaped:  shaped,
		Prog:    asmProg,
		Deck:    deck,
		Machine: m,
	}, nil
}

// Listing renders the assembly listing.
func (c *Compiled) Listing() string { return asm.Listing(c.Prog, c.Machine) }

// VarAddr returns the absolute storage address of a main-program
// variable ("x") or a procedure local ("p.x", valid while its frame is
// live or immediately after the call).
func (c *Compiled) VarAddr(name string) (uint32, bool) {
	off, ok := c.Shaped.VarOffset[name]
	if !ok {
		return 0, false
	}
	return uint32(rt370.MainFrame + off), true
}

// NewCPU prepares a simulator with the program loaded. Programs shaped
// with uninitialized-variable checking get their data area planted with
// the uninitialized pattern first.
func (c *Compiled) NewCPU() (*sim.CPU, error) {
	cpu, err := rt370.NewCPU()
	if err != nil {
		return nil, err
	}
	if c.Shaped.UninitChecks {
		for i := rt370.DataOrigin; i < rt370.OutBase; i++ {
			cpu.Mem[i] = 0x81
		}
	}
	if err := c.Deck.LoadInto(cpu.Mem, 0); err != nil {
		return nil, err
	}
	return cpu, nil
}

// Run executes the program to completion. init seeds main-program
// variables before entry; the returned CPU exposes final storage.
func (c *Compiled) Run(init map[string]int32, maxSteps int) (*sim.CPU, error) {
	cpu, err := c.NewCPU()
	if err != nil {
		return nil, err
	}
	for name, v := range init {
		addr, ok := c.VarAddr(name)
		if !ok {
			return nil, fmt.Errorf("driver: no variable %q to initialize", name)
		}
		if err := cpu.SetWord(addr, v); err != nil {
			return nil, err
		}
	}
	if err := cpu.Run(maxSteps); err != nil {
		return cpu, err
	}
	if flag := rt370.AbortFlag(cpu); flag != 0 {
		return cpu, fmt.Errorf("driver: program aborted with runtime check class %d", flag)
	}
	return cpu, nil
}

// Output reads the values written by write/writeln during a run.
func Output(cpu *sim.CPU) []int32 { return rt370.Output(cpu) }

// Word reads a fullword main-program variable after a run.
func Word(cpu *sim.CPU, c *Compiled, name string) (int32, error) {
	addr, ok := c.VarAddr(name)
	if !ok {
		return 0, fmt.Errorf("driver: unknown variable %q", name)
	}
	return cpu.Word(addr)
}

// Byte reads a byte-format main-program variable (boolean, char).
func Byte(cpu *sim.CPU, c *Compiled, name string) (byte, error) {
	addr, ok := c.VarAddr(name)
	if !ok {
		return 0, fmt.Errorf("driver: unknown variable %q", name)
	}
	return cpu.Byte(addr)
}

// Half reads a halfword main-program variable.
func Half(cpu *sim.CPU, c *Compiled, name string) (int32, error) {
	addr, ok := c.VarAddr(name)
	if !ok {
		return 0, fmt.Errorf("driver: unknown variable %q", name)
	}
	return cpu.Half(addr)
}

// sortedKeys returns a map's integer keys in ascending order, for
// deterministic emission from offset-keyed maps.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
