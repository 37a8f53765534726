package codegen

import (
	"fmt"
	"time"

	"cogg/internal/asm"
	"cogg/internal/faultinject"
	"cogg/internal/ir"
)

// reduce executes the code emission routine for production index pi,
// following the structure of the paper's section 3 pseudo-code. All
// per-reduction state lives in scratch buffers on the run (the slot
// array, the allocation marks, the pushback staging buffer), and the
// popped right side aliases the truncated parse-stack tail — nothing is
// pushed onto the parse stack until the reduction completes — so a
// steady-state reduction performs no heap allocation.
func (r *run) reduce(pi int) error {
	pl := &r.g.plans[pi]
	p := pl.prod
	if err := faultinject.Eval("codegen/reduce", r.prog.Name); err != nil {
		return err
	}
	r.ra.Tick()
	r.res.Reductions++
	r.res.ProdCounts[p.Num]++
	r.curPlan = pl

	// Remove the current production from the parse stack.
	n := len(p.RHS)
	if len(r.stack)-1 < n {
		return &GenError{Pos: r.input.pos, State: r.top().state,
			Msg: fmt.Sprintf("reduce of production %d needs %d stack symbols, have %d", p.Num, n, len(r.stack)-1)}
	}
	r.popped = r.stack[len(r.stack)-n:]
	r.stack = r.stack[:len(r.stack)-n]
	for i, s := range pl.rhsSlot {
		if s >= 0 {
			r.slots[s] = r.popped[i].val
		}
	}
	for i := 0; i < pl.nslots; i++ {
		r.allocMark[i] = false
	}
	r.ignoreLHS = false
	r.pushed = r.pushed[:0]

	// Allocate all requested registers at once, before acting on any
	// template (paper section 4.1). When timed, the allocate and the
	// template steps accumulate into the regalloc and emit phases; the
	// clock reads cost two time.Now calls per reduction and no
	// allocation, so the instrumented hot path stays zero-alloc.
	var t0 time.Time
	if r.timed {
		t0 = time.Now()
	}
	if err := r.allocate(pl); err != nil {
		return err
	}
	if r.timed {
		now := time.Now()
		r.regallocNS += now.Sub(t0).Nanoseconds()
		t0 = now
	}

	// Fill in required values and act on each associated template.
	r.pendingSkips = r.pendingSkips[:0]
	for si := range pl.steps {
		st := &pl.steps[si]
		r.curStep = st
		if st.op != semMachine {
			if err := r.intervene(pl, st); err != nil {
				return r.templateErr(pl, st, err)
			}
			continue
		}
		if err := r.emitMachine(st); err != nil {
			return r.templateErr(pl, st, err)
		}
	}
	r.curStep = nil
	if r.timed {
		r.emitNS += time.Since(t0).Nanoseconds()
	}
	if len(r.pendingSkips) > 0 {
		// A trailing skip may legitimately complete at the end of the
		// production's sequence; anything else is a template error.
		for _, ps := range r.pendingSkips {
			if ps.remaining > 0 {
				return &GenError{Pos: r.input.pos, State: r.top().state,
					Msg: fmt.Sprintf("production %d: skip of %d instructions extends past its template sequence", p.Num, ps.remaining)}
			}
		}
		r.pendingSkips = r.pendingSkips[:0]
	}

	// Release operand registers consumed from the parse stack, keeping
	// the occurrence the left side reuses.
	pushLHS := !pl.lambda && !r.ignoreLHS
	var lhsVal int64
	if pushLHS {
		slot := pl.lhsSlot
		if slot < 0 {
			slot = pl.lhsFallback
		}
		if slot < 0 {
			return &GenError{Pos: r.input.pos, State: r.top().state,
				Msg: fmt.Sprintf("production %d: left side %s.%d has no value", p.Num, pl.lhsName, pl.lhsTag)}
		}
		lhsVal = r.slots[slot]
	}
	keptLHS := false
	for i := range r.popped {
		class := pl.rhsClass[i]
		if class == "" {
			continue
		}
		if pushLHS && !keptLHS && class == pl.lhsClass && r.popped[i].val == lhsVal {
			keptLHS = true
			continue
		}
		r.ra.DecUse(class, int(r.popped[i].val))
	}
	// The LHS register was allocated for this production; its single use
	// transfers to the prefixed token.
	if pushLHS && pl.lhsSlot >= 0 {
		r.allocMark[pl.lhsSlot] = false
	}

	// Release transient registers: scratch registers for skips and long
	// branches, linkage registers taken with `need`.
	for si := 0; si < pl.nslots; si++ {
		if !r.allocMark[si] {
			continue
		}
		class := pl.slotClass[si]
		if class == "" {
			continue
		}
		v := r.slots[si]
		if r.g.pairClass[class] {
			if err := r.ra.FreePair(class, int(v)); err != nil {
				return err
			}
			continue
		}
		r.ra.DecUse(class, int(v))
	}

	// Prefix the LHS (and any tokens pushed by the templates) to the
	// input stream. Lambda productions complete a statement: the parse
	// stack must be back at the bottom.
	if pushLHS {
		r.pushed = append(r.pushed, ir.Token{Sym: pl.lhsName, Val: lhsVal})
	}
	if len(r.pushed) > 0 {
		r.input.prefix(r.pushed...)
	}
	if pl.lambda && len(r.stack) != 1 {
		return &GenError{Pos: r.input.pos, State: r.top().state,
			Msg: fmt.Sprintf("statement production %d reduced with %d symbols still on the parse stack", p.Num, len(r.stack)-1)}
	}
	return nil
}

// allocate performs the up-front register allocation for one production.
func (r *run) allocate(pl *prodPlan) error {
	for i := range pl.uses {
		u := &pl.uses[i]
		if u.class == "" {
			return fmt.Errorf("codegen: using %s.%d: not a register class", r.gr.SymName(u.ref.Sym), u.ref.Tag)
		}
		n, err := r.ra.Using(u.class)
		if err != nil {
			return &ResourceError{Kind: ResRegisters, Pos: r.input.pos, State: r.top().state,
				Msg: fmt.Sprintf("production %d: %v", pl.prod.Num, err)}
		}
		r.slots[u.slot] = int64(n)
		r.allocMark[u.slot] = true
	}
	for i := range pl.needs {
		nd := &pl.needs[i]
		if nd.class == "" {
			return fmt.Errorf("codegen: need %s.%d: not a register class", r.gr.SymName(nd.ref.Sym), nd.ref.Tag)
		}
		mv, evicted, err := r.ra.Need(nd.class, nd.ref.Tag)
		if err != nil {
			return &ResourceError{Kind: ResRegisters, Pos: r.input.pos, State: r.top().state,
				Msg: fmt.Sprintf("production %d: %v", pl.prod.Num, err)}
		}
		if evicted {
			if err := r.materializeMove(pl, mv.Class, mv.From, mv.To); err != nil {
				return err
			}
		}
		r.slots[nd.slot] = int64(nd.ref.Tag)
		r.allocMark[nd.slot] = true
	}
	return nil
}

// materializeMove emits the register copy for a `need` eviction and
// rewrites every holder of the old register: the translation stack, the
// popped right side, the pushback queue, the current bindings, and the
// CSE table.
func (r *run) materializeMove(pl *prodPlan, class string, from, to int) error {
	op, ok := r.g.cfg.MoveOp[class]
	if !ok {
		return fmt.Errorf("codegen: no move opcode configured for register class %q", class)
	}
	opds := r.arena.alloc(2)
	opds[0] = asm.R(to)
	opds[1] = asm.R(from)
	r.provMove = true
	r.emit(asm.Instr{Op: op, Opds: opds, Comment: evictComment(from)})
	r.provMove = false
	symID := r.g.classSym[class] // nonterminal id: its name is the class name
	for i := range r.stack {
		if r.stack[i].sym == symID && r.stack[i].val == int64(from) {
			r.stack[i].val = int64(to)
		}
	}
	for i := range r.popped {
		if r.popped[i].sym == symID && r.popped[i].val == int64(from) {
			r.popped[i].val = int64(to)
		}
	}
	for si := 0; si < pl.nslots; si++ {
		if r.slots[si] == int64(from) && pl.slotClass[si] == class {
			r.slots[si] = int64(to)
		}
	}
	r.input.rewriteRegs(class, int64(from), int64(to))
	r.cses.MoveReg(class, from, to)
	return nil
}

// emit appends one instruction to the code buffer, resolving pending
// skip targets and stamping the source statement number. The code
// buffer is bounded: past Config.MaxCodeBytes a sticky ResourceError is
// recorded for the parse loop to surface (emit itself has no error
// return — the template paths call it unconditionally). The instruction
// is appended before sizing so the Machine reads it in place, keeping
// the argument from escaping to the heap.
func (r *run) emit(in asm.Instr) int {
	in.Stmt = r.stmtNum
	ix := r.prog.Append(in)
	if sz, err := r.g.cfg.Machine.SizeOf(&r.prog.Instrs[ix]); err == nil {
		r.codeBytes += sz
	} else {
		r.codeBytes += 6 // the longest S/370 instruction; a safe overestimate
	}
	if max := r.g.maxCodeBytes(); r.codeBytes > max && r.codeErr == nil {
		r.codeErr = &ResourceError{Kind: ResCodeBytes, Limit: max, Pos: r.input.pos,
			State: r.top().state,
			Msg:   fmt.Sprintf("code buffer exceeds %d bytes", max)}
	}
	for i := range r.pendingSkips {
		ps := &r.pendingSkips[i]
		if ps.remaining > 0 {
			ps.remaining--
			if ps.remaining == 0 {
				// The label lands after this instruction.
				_ = r.prog.DefineLabel(ps.label, ix+1)
			}
		}
	}
	if r.provEnabled {
		r.recordProv(ix)
	}
	return ix
}

func (r *run) templateErr(pl *prodPlan, st *tmplStep, err error) error {
	if _, ok := err.(*GenError); ok {
		return err
	}
	return &GenError{Pos: r.input.pos, State: r.top().state,
		Msg: fmt.Sprintf("production %d, template %q (line %d): %v", pl.prod.Num, st.name, st.t.Line, err)}
}
