package codegen

import (
	"fmt"
	"io"

	"cogg/internal/asm"
	"cogg/internal/cse"
	"cogg/internal/grammar"
	"cogg/internal/ir"
	"cogg/internal/lr"
	"cogg/internal/regalloc"
	"cogg/internal/tables"
)

// inputQueue is the parser's input stream with prefix pushback: reduced
// left sides (and the tokens produced by find_common) are prefixed to the
// stream and consumed before the remaining IF.
type inputQueue struct {
	front []ir.Token // pushback, consumed last-in-first-out... see push
	toks  []ir.Token
	pos   int // consumed count of toks
}

func newInputQueue(toks []ir.Token) *inputQueue { return &inputQueue{toks: toks} }

// reset rewinds the queue onto a fresh token stream, keeping the
// pushback buffer's capacity.
func (q *inputQueue) reset(toks []ir.Token) {
	q.front = q.front[:0]
	q.toks = toks
	q.pos = 0
}

// peek returns the next token; ok is false at end of input.
func (q *inputQueue) peek() (ir.Token, bool) {
	if n := len(q.front); n > 0 {
		return q.front[n-1], true
	}
	if q.pos < len(q.toks) {
		return q.toks[q.pos], true
	}
	return ir.Token{}, false
}

// consume removes the token returned by peek.
func (q *inputQueue) consume() {
	if n := len(q.front); n > 0 {
		q.front = q.front[:n-1]
		return
	}
	q.pos++
}

// prefix pushes a sequence of tokens so that seq[0] is consumed next.
func (q *inputQueue) prefix(seq ...ir.Token) {
	for i := len(seq) - 1; i >= 0; i-- {
		q.front = append(q.front, seq[i])
	}
}

// rewriteRegs substitutes register tokens of one class after an eviction.
func (q *inputQueue) rewriteRegs(sym string, from, to int64) {
	for i := range q.front {
		if q.front[i].Sym == sym && q.front[i].Val == from {
			q.front[i].Val = to
		}
	}
}

// stackEntry is one parse/translation stack element.
type stackEntry struct {
	state int
	sym   int
	val   int64
}

// opdArena hands out operand slices for emitted instructions from a
// reusable chunk, so filling a template allocates nothing once the chunk
// has grown to the program's working size. When a chunk fills up a
// larger one replaces it; instructions already emitted keep referencing
// the old chunk, which stays alive behind their slice headers.
type opdArena struct {
	buf []asm.Operand
}

func (a *opdArena) alloc(n int) []asm.Operand {
	if len(a.buf)+n > cap(a.buf) {
		c := 2 * (cap(a.buf) + n)
		if c < 256 {
			c = 256
		}
		a.buf = make([]asm.Operand, 0, c)
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

// reset recycles the current (largest) chunk for the next run. Operand
// slices handed out before the reset are overwritten by the next run —
// the session-reuse aliasing caveat documented on Session.
func (a *opdArena) reset() { a.buf = a.buf[:0] }

// run is the state of one translation.
type run struct {
	g      *Generator
	gr     *grammar.Grammar
	ra     *regalloc.File
	cses   *cse.Table
	prog   *asm.Program
	input  *inputQueue
	stack  []stackEntry
	res    *Result
	packed *tables.Packed
	dense  *lr.Table // optional uncompressed dispatch (benchmark ablation)

	autoLabel int64 // allocator for generator-internal (negative) labels
	stmtNum   int   // current source statement, from stmt_record

	// blocked-parse recovery state: diagnostics collected so far and
	// whether the cap cut collection short.
	blocks    []BlockDiag
	truncated bool

	// code-buffer accounting for the MaxCodeBytes limit. codeErr is
	// sticky so emit (which many template paths call without an error
	// return) can record the violation for the parse loop to surface.
	codeBytes int
	codeErr   error

	// phase timing, accumulated per reduction when metrics or a trace
	// are attached (GenerateCtx sets timed): regallocNS covers the
	// up-front allocate, emitNS the template/semantic steps. Both are
	// slices of the surrounding parse-reduce phase.
	timed      bool
	regallocNS int64
	emitNS     int64

	// derivation provenance (opt-in, see provenance.go): curPlan and
	// curStep track the reduction context emit attributes entries to;
	// provMove flags the emission inside materializeMove.
	provEnabled bool
	prov        []ProvEntry
	curPlan     *prodPlan
	curStep     *tmplStep
	provMove    bool

	// per-reduction scratch, reused across reductions and runs:
	// slots/allocMark are sized to the generator's widest plan; popped
	// aliases the truncated parse-stack tail for the current reduction;
	// pushed stages the tokens prefixed to the input.
	slots        []int64
	allocMark    []bool
	popped       []stackEntry
	pushed       []ir.Token
	ignoreLHS    bool
	pendingSkips []pendingSkip
	arena        opdArena
}

type pendingSkip struct {
	label     int64
	remaining int64
}

// reset rewinds the run for a fresh translation, reusing every buffer
// whose contents do not escape to the caller. The blocked-parse
// diagnostics do escape (inside BlockedError), so that slice is
// dropped, not truncated.
func (r *run) reset(name string, toks []ir.Token) {
	r.ra.Reset()
	r.ra.ResetStats()
	r.cses.Reset()
	r.prog.Reset(name)
	r.prog.Origin = r.g.cfg.Origin
	r.prog.PoolOrigin = r.g.cfg.PoolOrigin
	r.input.reset(toks)
	r.stack = r.stack[:0]
	r.res.Reductions = 0
	r.res.Instructions = 0
	for i := range r.res.ProdCounts {
		r.res.ProdCounts[i] = 0
	}
	r.packed = r.g.mod.Packed
	r.dense = r.g.mod.Dense
	r.autoLabel = -1
	r.stmtNum = 0
	r.blocks = nil
	r.truncated = false
	r.codeBytes = 0
	r.codeErr = nil
	r.timed = false
	r.regallocNS, r.emitNS = 0, 0
	// Provenance entries escape through Session.Provenance until the
	// next Generate; truncate (keeping capacity) when recording stays
	// on, drop entirely when it was switched off.
	if r.provEnabled {
		r.prov = r.prov[:0]
	} else {
		r.prov = nil
	}
	r.curPlan, r.curStep = nil, nil
	r.provMove = false
	r.pushed = r.pushed[:0]
	r.popped = nil
	r.ignoreLHS = false
	r.pendingSkips = r.pendingSkips[:0]
	r.arena.reset()
}

// parse runs the skeletal LR parser to completion. A blocked parse —
// an (state, IF symbol) pair with no action — is recorded as a
// BlockDiag and recovered by resynchronizing at the next statement
// boundary, so one run reports every blocking site the input exercises
// (up to Config.MaxBlocks); any blocks surface as one BlockedError.
func (r *run) parse() error {
	r.stack = append(r.stack[:0], stackEntry{state: 0, sym: -1})
	maxDepth := r.g.maxStackDepth()
	// Every step either consumes an input token or reduces (popping at
	// least one stack entry after pushing bounded pushback); bound the
	// loop generously to catch non-uniformly-reducible grammars, which
	// Glanville's construction rejects statically.
	limit := 64*(len(r.input.toks)+8) + 4096
	for steps := 0; ; steps++ {
		if steps > limit {
			return &GenError{Pos: r.input.pos, State: r.top().state,
				Msg: "parser appears to be looping (grammar is not uniformly reducible)"}
		}
		if r.codeErr != nil {
			return r.codeErr
		}
		tok, ok := r.input.peek()
		sym := 0
		if !ok {
			sym = r.g.eofSym
		} else {
			s, found := r.gr.Lookup(tok.Sym)
			if !found {
				if r.block(tok, ok, fmt.Sprintf("symbol %q is not declared in the code generator specification", tok.Sym)) {
					continue
				}
				return r.finish()
			}
			switch s.Kind {
			case grammar.Operator, grammar.Terminal, grammar.Nonterminal:
				sym = s.ID
			default:
				if r.block(tok, ok, fmt.Sprintf("%s %q cannot occur in the intermediate form", s.Kind, tok.Sym)) {
					continue
				}
				return r.finish()
			}
		}

		var act lr.Action
		if r.dense != nil {
			act = r.dense.Lookup(r.top().state, sym)
		} else {
			act = r.packed.Lookup(r.top().state, sym)
		}
		if w := r.g.cfg.Trace; w != nil {
			r.traceAction(w, tok, ok, act)
		}
		switch act.Kind() {
		case lr.Accept:
			if len(r.stack) != 1 {
				return &GenError{Pos: r.input.pos, State: r.top().state,
					Msg: fmt.Sprintf("input exhausted with %d symbols left on the parse stack", len(r.stack)-1)}
			}
			return r.finish()
		case lr.Shift:
			if len(r.stack) >= maxDepth {
				return &ResourceError{Kind: ResStackDepth, Limit: maxDepth,
					Pos: r.input.pos, State: r.top().state,
					Msg: fmt.Sprintf("parse stack exceeds %d entries", maxDepth)}
			}
			r.stack = append(r.stack, stackEntry{state: act.Target(), sym: sym, val: tok.Val})
			r.input.consume()
		case lr.Reduce:
			if err := r.reduce(act.Target()); err != nil {
				return err
			}
		default:
			if r.block(tok, ok, "no action; the specification cannot translate this IF shape") {
				continue
			}
			return r.finish()
		}
	}
}

// finish ends a parse: clean runs report nil, runs that blocked report
// every collected diagnostic as one BlockedError.
func (r *run) finish() error {
	if len(r.blocks) == 0 {
		return nil
	}
	return &BlockedError{Name: r.prog.Name, Blocks: r.blocks, Truncated: r.truncated}
}

// block records a blocked-parse diagnostic and resynchronizes so the
// parse can continue collecting further blocks. It reports false when
// parsing cannot continue: the input is exhausted or the diagnostic cap
// is reached.
//
// Recovery abandons the offending IF subtree: the pushback queue, the
// parse stack, and the register and CSE state all describe the broken
// statement, so all four reset, and input is skipped until a token that
// can begin a statement (one with an action in the start state). The
// code emitted after a block is best-effort — Generate still returns an
// error — recovery exists to surface every specification hole in one
// run, not to salvage the translation.
func (r *run) block(tok ir.Token, haveTok bool, reason string) bool {
	d := BlockDiag{Pos: r.input.pos, Stmt: r.stmtNum, State: r.top().state,
		Lookahead: "$end", Reason: reason, Expected: r.expectedSymbols()}
	if haveTok {
		d.Lookahead = tok.String()
	}
	for _, e := range r.stack[1:] {
		d.Stack = append(d.Stack, r.gr.SymName(e.sym))
	}
	r.blocks = append(r.blocks, d)
	if w := r.g.cfg.Trace; w != nil {
		fmt.Fprintf(w, "state %4d  BLOCKED on %s; resynchronizing\n", d.State, d.Lookahead)
	}
	if len(r.blocks) >= r.g.maxBlocks() {
		if haveTok {
			r.truncated = true
		}
		return false
	}
	if !haveTok {
		return false
	}
	r.input.front = r.input.front[:0]
	r.stack = append(r.stack[:0], stackEntry{state: 0, sym: -1})
	r.ra.Reset()
	r.cses.Reset()
	r.input.consume()
	for {
		next, ok := r.input.peek()
		if !ok {
			// The start state accepts at end of input, so the main loop
			// terminates cleanly and finish reports the blocks.
			return true
		}
		if s, found := r.gr.Lookup(next.Sym); found {
			switch s.Kind {
			case grammar.Operator, grammar.Terminal, grammar.Nonterminal:
				if r.lookupAction(0, s.ID).Kind() != lr.Error {
					return true
				}
			}
		}
		r.input.consume()
	}
}

func (r *run) top() *stackEntry { return &r.stack[len(r.stack)-1] }

// lookupAction dispatches one (state, symbol) pair outside the main
// parse loop: blocked-parse resynchronization and the expected-symbol
// simulation. The main loop keeps its own inlined dense/packed dispatch.
func (r *run) lookupAction(state, sym int) lr.Action {
	if r.dense != nil {
		return r.dense.Lookup(state, sym)
	}
	return r.packed.Lookup(state, sym)
}

// traceAction writes one spec-debugging line for the pending action.
func (r *run) traceAction(w io.Writer, tok ir.Token, haveTok bool, act lr.Action) {
	lookahead := "$end"
	if haveTok {
		lookahead = tok.String()
	}
	switch act.Kind() {
	case lr.Shift:
		fmt.Fprintf(w, "state %4d  shift  %-16s -> state %d\n", r.top().state, lookahead, act.Target())
	case lr.Reduce:
		p := r.gr.Prods[act.Target()]
		fmt.Fprintf(w, "state %4d  reduce %-16s by %d: %s\n", r.top().state, lookahead, p.Num, r.gr.ProdString(p))
	case lr.Accept:
		fmt.Fprintf(w, "state %4d  accept\n", r.top().state)
	default:
		fmt.Fprintf(w, "state %4d  ERROR on %s\n", r.top().state, lookahead)
	}
}

// nextAutoLabel allocates a generator-internal label id (< 0).
func (r *run) nextAutoLabel() int64 {
	id := r.autoLabel
	r.autoLabel--
	return id
}

// holdCSEUses returns the extra use count that register (class, n)
// carries on behalf of live CSEs.
func (r *run) holdCSEUses(class string, n int) int {
	total := 0
	for _, e := range r.cses.HeldIn(class, n) {
		total += e.Uses
	}
	return total
}
