// Package codegen is the skeletal parser and code emission routine of a
// code generator produced by CoGG (paper section 3).
//
// The generator performs a bottom-up parse of the linearized prefix
// intermediate form using the SLR tables constructed by package lr. When
// a reduction occurs the code emission routine removes the production
// from the parse stack, allocates all registers requested by the
// production's templates, fills in the required values (registers,
// displacements, ...), intercepts templates that require semantic
// intervention, appends the remaining instructions to the code buffer,
// and prefixes the left-hand side — with its semantic value — to the
// input stream.
package codegen

import (
	"context"
	"fmt"
	"io"
	"time"

	"cogg/internal/asm"
	"cogg/internal/cse"
	"cogg/internal/grammar"
	"cogg/internal/ir"
	"cogg/internal/obs"
	"cogg/internal/regalloc"
	"cogg/internal/tables"
)

// Config carries the target-dependent portions of the code generator:
// the register classes behind the grammar's nonterminals and the handful
// of emission routines that must change when retargeting.
type Config struct {
	Machine asm.Machine

	// Classes describes the register classes named by the grammar's
	// nonterminals.
	Classes []regalloc.Class

	// MoveOp maps a register class to the register-to-register copy
	// opcode used for `need` evictions ("r" -> "lr").
	MoveOp map[string]string

	// SaveOp maps a CSE width to the store opcode used when a `modifies`
	// operator forces a register-resident CSE into its memory home.
	SaveOp map[cse.Width]string

	// LoadOddOps maps the load_odd_* semantic operators to the opcodes
	// that fill the odd half of an even/odd pair.
	LoadOddOps map[string]string

	// FindCommonType maps a CSE width to the IF type operator prefixed
	// to the input when the CSE must be reloaded from storage.
	FindCommonType map[cse.Width]string

	// Origin and PoolOrigin are the load addresses of code and of the
	// literal pool inside the runtime constant area.
	Origin     int
	PoolOrigin int

	// Trace, when non-nil, receives one line per parser action (shift,
	// reduce, prefix-to-input) — the spec-debugging view of the skeletal
	// parser at work.
	Trace io.Writer

	// Metrics, when non-nil, receives per-translation counters,
	// per-production reduce counts, register-pressure observations, and
	// phase latencies (see NewMetrics). The instruments update through
	// plain atomics, so an instrumented generator keeps the
	// zero-allocation emission hot path.
	Metrics *Metrics

	// MaxBlocks caps the blocked-parse diagnostics collected per
	// Generate before the parser gives up resynchronizing; <= 0 means
	// DefaultMaxBlocks.
	MaxBlocks int

	// MaxStackDepth bounds the parse stack; <= 0 means
	// DefaultMaxStackDepth. Exceeding it is a ResourceError.
	MaxStackDepth int

	// MaxCodeBytes bounds the code buffer (estimated from instruction
	// sizes as emitted, before layout); <= 0 means DefaultMaxCodeBytes.
	// Exceeding it is a ResourceError.
	MaxCodeBytes int
}

// Default translation resource limits, applied when the corresponding
// Config field is zero. They are generous for real programs — the
// paper's compiler never comes near them — and exist so pathological IF
// streams degrade to structured errors instead of unbounded memory.
const (
	DefaultMaxBlocks     = 16
	DefaultMaxStackDepth = 1 << 16
	DefaultMaxCodeBytes  = 1 << 24
)

func (g *Generator) maxBlocks() int {
	if g.cfg.MaxBlocks > 0 {
		return g.cfg.MaxBlocks
	}
	return DefaultMaxBlocks
}

func (g *Generator) maxStackDepth() int {
	if g.cfg.MaxStackDepth > 0 {
		return g.cfg.MaxStackDepth
	}
	return DefaultMaxStackDepth
}

func (g *Generator) maxCodeBytes() int {
	if g.cfg.MaxCodeBytes > 0 {
		return g.cfg.MaxCodeBytes
	}
	return DefaultMaxCodeBytes
}

// Generator is a code generator instantiated from a table module.
//
// A Generator is immutable once New returns: the table module, the
// configuration, the class tables, and the production plans are only
// ever read afterwards, and every Generate call carries its own
// allocator, CSE table, parse stack, and code buffer. One Generator —
// including one built from a single decoded module — therefore serves
// any number of concurrent Generate calls. The one caveat is
// Config.Trace: the trace writer is shared across runs, so a traced
// Generator must either be confined to one goroutine or given a writer
// that is itself safe for concurrent use.
type Generator struct {
	mod *tables.Module
	cfg Config

	classNames []string       // nonterminal symbol ID -> register class name, "" none
	classSym   map[string]int // register class name -> nonterminal symbol ID
	pairClass  map[string]bool

	plans        []prodPlan // by production index
	maxSlots     int        // widest plan, sizes the per-run slot scratch
	prodCountLen int        // Result.ProdCounts length: max production Num + 1
	eofSym       int        // end-marker symbol id
}

// New builds a Generator, verifying that the grammar's register
// nonterminals all have classes and that every semantic operator the
// productions use is known to the code emission routine. New also
// precompiles every production into its plan (see plan.go), so the
// per-reduction work never consults the grammar's string names or maps.
func New(mod *tables.Module, cfg Config) (*Generator, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("codegen: config has no target machine")
	}
	gr := mod.Grammar
	g := &Generator{
		mod:        mod,
		cfg:        cfg,
		classNames: make([]string, len(gr.Syms)),
		classSym:   make(map[string]int),
		pairClass:  make(map[string]bool),
		eofSym:     len(mod.Packed.ColOf) - 1,
	}
	byName := make(map[string]regalloc.Class, len(cfg.Classes))
	for _, c := range cfg.Classes {
		byName[c.Name] = c
		if c.Pair {
			g.pairClass[c.Name] = true
		}
	}
	for _, s := range gr.Syms {
		if s.Kind != grammar.Nonterminal || s.ID == gr.Lambda {
			continue
		}
		if _, ok := byName[s.Name]; !ok {
			return nil, fmt.Errorf("codegen: nonterminal %q has no register class in the configuration", s.Name)
		}
		g.classNames[s.ID] = s.Name
		g.classSym[s.Name] = s.ID
	}
	for _, p := range gr.Prods {
		for _, t := range p.Templates {
			if !t.Semantic {
				continue
			}
			name := gr.SymName(t.Op)
			if !knownSemantic(name) {
				return nil, fmt.Errorf("codegen: production %d uses semantic operator %q unknown to the code emission routine",
					p.Num, name)
			}
		}
		if p.Num >= g.prodCountLen {
			g.prodCountLen = p.Num + 1
		}
	}
	g.compilePlans()
	if cfg.Metrics != nil {
		// Pre-size the per-production counter vector so steady-state
		// reductions never take the grow-under-lock slow path.
		cfg.Metrics.reductions.Grow(g.prodCountLen)
	}
	return g, nil
}

// Grammar returns the generator's grammar.
func (g *Generator) Grammar() *grammar.Grammar { return g.mod.Grammar }

// Result reports statistics of one translation.
type Result struct {
	Reductions   int
	Instructions int
	// ProdCounts counts, per production number (1-based specification
	// order; index 0 is unused), how many times the production was used
	// to reduce — the raw material of the grammar-complexity sweep.
	ProdCounts []int
	// RegAllocs, Evictions, and PeakLiveRegs report register-file
	// activity: registers allocated by using/need, need-evictions
	// materialized as moves, and the peak number of simultaneously busy
	// registers — the pressure signal behind the
	// cogg_register_pressure_peak histogram.
	RegAllocs    int
	Evictions    int
	PeakLiveRegs int
}

// Generate translates one linearized IF program into a code buffer. The
// returned program still requires labels.Layout and loader.Build.
func (g *Generator) Generate(name string, toks []ir.Token) (*asm.Program, *Result, error) {
	return g.GenerateCtx(context.Background(), name, toks)
}

// GenerateCtx is Generate with a context: a trace attached via
// obs.ContextWith records the parse-reduce phase span (with regalloc
// and emit children) under the context's current span.
func (g *Generator) GenerateCtx(ctx context.Context, name string, toks []ir.Token) (*asm.Program, *Result, error) {
	s, err := g.NewSession()
	if err != nil {
		return nil, nil, err
	}
	return s.GenerateCtx(ctx, name, toks)
}

// Session owns the reusable translation state of one goroutine: the
// register file, the CSE table, the parse stack, the code buffer, the
// operand arena, and the per-reduction scratch. Steady-state Generate
// calls on a warmed-up session perform no heap allocation.
//
// A Session is not safe for concurrent use, and the Program and Result
// returned by Generate alias session-owned storage: they remain valid
// only until the next Generate call on the same session. Callers that
// retain programs across calls must use Generator.Generate, which
// builds a fresh session per translation.
type Session struct {
	r run
}

// NewSession builds a reusable translation session for this generator.
func (g *Generator) NewSession() (*Session, error) {
	ra, err := regalloc.New(g.cfg.Classes)
	if err != nil {
		return nil, err
	}
	s := &Session{}
	s.r = run{
		g:         g,
		gr:        g.mod.Grammar,
		ra:        ra,
		cses:      cse.New(),
		prog:      asm.NewProgram(""),
		input:     &inputQueue{},
		res:       &Result{ProdCounts: make([]int, g.prodCountLen)},
		slots:     make([]int64, g.maxSlots),
		allocMark: make([]bool, g.maxSlots),
	}
	return s, nil
}

// Generate translates one linearized IF program, reusing the session's
// buffers. See Session for the aliasing caveat.
func (s *Session) Generate(name string, toks []ir.Token) (*asm.Program, *Result, error) {
	return s.GenerateCtx(context.Background(), name, toks)
}

// GenerateCtx is Generate with a context. A trace attached to the
// context (obs.ContextWith) gets a parse-reduce span with accumulated
// regalloc and emit children; Config.Metrics, when set, is flushed once
// per call. Neither costs an allocation on the emission hot path, and
// with a plain background context and nil Metrics the timing reads are
// skipped entirely.
func (s *Session) GenerateCtx(ctx context.Context, name string, toks []ir.Token) (*asm.Program, *Result, error) {
	r := &s.r
	r.reset(name, toks)
	tr, parent := obs.FromContext(ctx)
	m := r.g.cfg.Metrics
	r.timed = tr != nil || m != nil
	var start time.Time
	if r.timed {
		start = time.Now()
	}
	err := r.parse()
	// Drop the caller's token stream: a pooled session must not keep the
	// last unit's IF alive until its next run.
	r.input.toks = nil
	rs := r.ra.RunStats()
	r.res.RegAllocs = int(rs.Allocs)
	r.res.Evictions = int(rs.Evictions)
	r.res.PeakLiveRegs = rs.PeakLive
	r.res.Instructions = r.prog.InstructionCount()
	if r.timed {
		total := time.Since(start)
		regalloc := time.Duration(r.regallocNS)
		emit := time.Duration(r.emitNS)
		if m != nil {
			traceID := ""
			if tr != nil {
				traceID = tr.ID()
			}
			m.observe(r.res, total, regalloc, emit, err != nil, traceID)
		}
		if tr != nil {
			// The regalloc and emit spans are accumulated slices of the
			// parse-reduce phase, not contiguous intervals; they anchor at
			// the phase start with their summed durations.
			pi := tr.AddSpan("parse-reduce", parent, start, total)
			if r.regallocNS > 0 {
				tr.AddSpan("regalloc", pi, start, regalloc)
			}
			if r.emitNS > 0 {
				tr.AddSpan("emit", pi, start, emit)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return r.prog, r.res, nil
}

// classOf returns the register class name for a nonterminal symbol ID, or
// "" when the symbol is not a register class.
func (g *Generator) classOf(sym int) string { return g.classNames[sym] }

// GenError is a code generation failure with parse position context.
type GenError struct {
	Pos   int // index of the offending token in the input stream
	Token ir.Token
	State int
	Msg   string
}

func (e *GenError) Error() string {
	return fmt.Sprintf("codegen: at token %d (%s, state %d): %s", e.Pos, e.Token, e.State, e.Msg)
}
