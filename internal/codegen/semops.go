package codegen

import (
	"fmt"

	"cogg/internal/asm"
	"cogg/internal/cse"
	"cogg/internal/ir"
)

// The semantic operators interpreted by the code emission routine. The
// specification declares them in its $Constants section; the table
// constructor verifies at generation time that every one it uses appears
// here (paper section 4 lists the categories: register allocation and
// symbol table management, machine idioms, and context sensitive
// manipulations of the parse/translation stack). Each name maps to its
// plan-time enum value so reductions dispatch on a jump table instead of
// a string switch.
var semanticOps = map[string]semOp{
	"using": semUsing, "need": semNeed, "modifies": semModifies,
	"ignore_lhs": semIgnoreLHS, "IBM_length": semIBMLength, "ibm_length": semIBMLength,
	"push_odd": semPushOdd, "push_even": semPushEven,
	"load_odd_addr": semLoadOddAddr, "load_odd_full": semLoadOddFull,
	"load_odd_half": semLoadOddHalf, "load_odd_reg": semLoadOddReg,
	"label_location": semLabelLocation, "label_pntr": semLabelPntr,
	"branch": semBranch, "branch_indexed": semBranchIndexed,
	"skip": semSkip, "case_load": semCaseLoad,
	"abort": semAbort, "stmt_record": semStmtRecord, "list_request": semListRequest,
	"full_common": semFullCommon, "half_common": semHalfCommon,
	"byte_common": semByteCommon,
	"real_common": semRealCommon, "dreal_common": semDRealCommon,
	"find_common": semFindCommon, "find_real_common": semFindRealCommon,
	"load_extended": semLoadExtended, "store_extended": semStoreExtended,
	"clear_extended": semClearExtended,
}

func knownSemantic(name string) bool { _, ok := semanticOps[name]; return ok }

// SemanticOpCount returns the number of semantic operators the emission
// routine implements (entry ix of Table 1 counts those a grammar uses).
func SemanticOpCount() int { return len(semanticOps) }

// Static comment tables: the steady-state reduction path must not
// format strings.
var skipComments = [...]string{
	"", "skip 1", "skip 2", "skip 3", "skip 4",
	"skip 5", "skip 6", "skip 7", "skip 8",
}

var evictComments = [...]string{
	"evicted for need r0", "evicted for need r1", "evicted for need r2",
	"evicted for need r3", "evicted for need r4", "evicted for need r5",
	"evicted for need r6", "evicted for need r7", "evicted for need r8",
	"evicted for need r9", "evicted for need r10", "evicted for need r11",
	"evicted for need r12", "evicted for need r13", "evicted for need r14",
	"evicted for need r15",
}

func evictComment(from int) string {
	if from >= 0 && from < len(evictComments) {
		return evictComments[from]
	}
	return fmt.Sprintf("evicted for need r%d", from)
}

// intervene interprets one compiled semantic template.
func (r *run) intervene(pl *prodPlan, st *tmplStep) error {
	switch st.op {
	case semUsing, semNeed:
		return nil // handled by the up-front allocation

	case semModifies:
		return r.semModifies(st)

	case semIgnoreLHS:
		r.ignoreLHS = true
		return nil

	case semIBMLength:
		// IBM SS instructions encode a length of n as n-1; rebind the
		// terminal so subsequent templates see the encoded value.
		rp, err := r.stepRef(st, 0)
		if err != nil {
			return err
		}
		v := r.slots[rp.slot]
		if v < 1 || v > 256 {
			return fmt.Errorf("IBM_length of %d is outside 1..256", v)
		}
		r.slots[rp.slot] = v - 1
		return nil

	case semPushOdd, semPushEven:
		return r.semPushHalf(st, st.op == semPushOdd)

	case semLoadOddAddr, semLoadOddFull, semLoadOddHalf, semLoadOddReg:
		return r.semLoadOdd(st)

	case semLabelLocation:
		v, err := r.stepVal(st, 0)
		if err != nil {
			return err
		}
		return r.prog.DefineLabel(v, len(r.prog.Instrs))

	case semLabelPntr:
		v, err := r.stepVal(st, 0)
		if err != nil {
			return err
		}
		r.emit(asm.Instr{Pseudo: asm.AddrConst, Label: v})
		return nil

	case semBranch, semBranchIndexed:
		return r.semBranch(st, st.op == semBranchIndexed)

	case semSkip:
		return r.semSkip(st)

	case semCaseLoad:
		return r.semCaseLoad(st)

	case semAbort:
		v, err := r.stepVal(st, 0)
		if err != nil {
			return err
		}
		r.prog.AbortSites[len(r.prog.Instrs)] = v
		return nil

	case semStmtRecord:
		v, err := r.stepVal(st, 0)
		if err != nil {
			return err
		}
		r.stmtNum = int(v)
		return nil

	case semListRequest:
		v, err := r.stepVal(st, 0)
		if err != nil {
			return err
		}
		r.prog.CallArgs[len(r.prog.Instrs)] = v
		return nil

	case semFullCommon, semHalfCommon, semByteCommon, semRealCommon, semDRealCommon:
		return r.semCommon(st, commonWidth(st.op))

	case semFindCommon, semFindRealCommon:
		return r.semFindCommon(st)

	case semLoadExtended, semStoreExtended, semClearExtended:
		return r.semExtended(st)
	}
	return fmt.Errorf("semantic operator %q is not implemented", st.name)
}

func commonWidth(op semOp) cse.Width {
	switch op {
	case semHalfCommon:
		return cse.Half
	case semByteCommon:
		return cse.Byte
	case semRealCommon:
		return cse.Real
	case semDRealCommon:
		return cse.DReal
	default:
		return cse.Full
	}
}

// semModifies informs the register allocation routine that the contents
// of a register has been changed: any common subexpression held there is
// saved to its temporary storage location and its register home
// invalidated, and the register's usage index is stamped.
func (r *run) semModifies(st *tmplStep) error {
	for i := range st.refs {
		rp, err := r.stepRef(st, i)
		if err != nil {
			return err
		}
		if rp.class == "" {
			return fmt.Errorf("modifies %s.%d: not a register", r.gr.SymName(rp.ref.Sym), rp.ref.Tag)
		}
		reg := int(r.slots[rp.slot])
		for _, e := range r.cses.HeldIn(rp.class, reg) {
			if !e.Saved {
				op, ok := r.g.cfg.SaveOp[e.Width]
				if !ok {
					return fmt.Errorf("no save opcode configured for %s common subexpressions", e.Width)
				}
				opds := r.arena.alloc(2)
				opds[0] = asm.R(reg)
				opds[1] = asm.M(e.Mem.Disp, 0, e.Mem.Base)
				r.emit(asm.Instr{Op: op, Opds: opds,
					Comment: fmt.Sprintf("save cse %d before r%d changes", e.ID, reg)})
				e.Saved = true
			}
			// The register carried the CSE's outstanding uses; they move
			// to the memory home.
			r.ra.IncUse(rp.class, reg, -e.Uses)
			r.cses.Invalidate(e)
		}
		r.ra.Touch(rp.class, reg)
	}
	return nil
}

// semPushHalf implements push_odd/push_even: one member of an even/odd
// pair becomes an ordinary register and is prefixed to the input stream
// ("it does so after performing a type conversion of the odd register
// into type r.n", paper section 4.3).
func (r *run) semPushHalf(st *tmplStep, odd bool) error {
	rp, err := r.stepRef(st, 0)
	if err != nil {
		return err
	}
	if !r.g.pairClass[rp.class] {
		return fmt.Errorf("push half of %s.%d: class %q is not an even/odd pair class",
			r.gr.SymName(rp.ref.Sym), rp.ref.Tag, rp.class)
	}
	even := int(r.slots[rp.slot])
	under := r.underClassName(rp.class)
	var kept int
	if odd {
		kept, err = r.ra.ConvertOdd(rp.class, even)
	} else {
		kept, err = r.ra.ConvertEven(rp.class, even)
	}
	if err != nil {
		return err
	}
	r.allocMark[rp.slot] = false
	r.pushed = append(r.pushed, ir.Token{Sym: under, Val: int64(kept)})
	return nil
}

func (r *run) underClassName(pair string) string {
	for _, c := range r.g.cfg.Classes {
		if c.Name == pair {
			return c.Under
		}
	}
	return ""
}

// semLoadOdd fills the odd half of a pair: load_odd_addr emits the
// address-load form, load_odd_full/half the storage loads, load_odd_reg
// the register copy.
func (r *run) semLoadOdd(st *tmplStep) error {
	rp, err := r.stepRef(st, 0)
	if err != nil {
		return err
	}
	if !r.g.pairClass[rp.class] {
		return fmt.Errorf("%s: %s.%d is not an even/odd pair", st.name, r.gr.SymName(rp.ref.Sym), rp.ref.Tag)
	}
	odd := int(r.slots[rp.slot]) + 1
	op, ok := r.g.cfg.LoadOddOps[st.name]
	if !ok {
		return fmt.Errorf("no opcode configured for %s", st.name)
	}
	if len(st.opds) != 2 {
		return fmt.Errorf("%s expects a pair and one source operand", st.name)
	}
	src, err := r.resolveOpd(&st.opds[1])
	if err != nil {
		return err
	}
	opds := r.arena.alloc(2)
	opds[0] = asm.R(odd)
	opds[1] = src
	r.emit(asm.Instr{Op: op, Opds: opds})
	return nil
}

// semBranch enters a branch instruction and its target into the
// dictionary; the binding of jump instructions to targets is resolved
// after all code for the module has been generated (section 4.2). The
// register allocated by the production serves the long form.
func (r *run) semBranch(st *tmplStep, indexed bool) error {
	if len(st.opds) != 3 {
		return fmt.Errorf("branch expects condition, label, and scratch register")
	}
	cond, err := r.stepVal(st, 0)
	if err != nil {
		return err
	}
	label, err := r.stepVal(st, 1)
	if err != nil {
		return err
	}
	scratch, err := r.stepRef(st, 2)
	if err != nil {
		return err
	}
	if indexed {
		return fmt.Errorf("branch_indexed is expressed through case_load in this implementation")
	}
	r.emit(asm.Instr{Pseudo: asm.Branch, Cond: cond, Label: label,
		Scratch: int(r.slots[scratch.slot])})
	return nil
}

// semSkip emits a forward branch over the next n instructions of the same
// template sequence, avoiding shaper-allocated labels for short internal
// jumps such as condition-code materialization (section 4.2).
func (r *run) semSkip(st *tmplStep) error {
	if len(st.opds) != 3 {
		return fmt.Errorf("skip expects condition, instruction count, and scratch register")
	}
	cond, err := r.stepVal(st, 0)
	if err != nil {
		return err
	}
	count, err := r.stepVal(st, 1)
	if err != nil {
		return err
	}
	if count < 1 || count > 8 {
		return fmt.Errorf("skip count %d is outside a template sequence", count)
	}
	scratch, err := r.stepRef(st, 2)
	if err != nil {
		return err
	}
	label := r.nextAutoLabel()
	r.emit(asm.Instr{Pseudo: asm.Branch, Cond: cond, Label: label,
		Scratch: int(r.slots[scratch.slot]),
		Comment: skipComments[count]})
	r.pendingSkips = append(r.pendingSkips, pendingSkip{label: label, remaining: count})
	return nil
}

// semCaseLoad emits the branch-table dispatch: load the table address
// from the literal pool, index it, and branch through the scratch
// register.
func (r *run) semCaseLoad(st *tmplStep) error {
	if len(st.opds) != 3 {
		return fmt.Errorf("case_load expects label, index register, and scratch register")
	}
	label, err := r.stepVal(st, 0)
	if err != nil {
		return err
	}
	index, err := r.stepRef(st, 1)
	if err != nil {
		return err
	}
	scratch, err := r.stepRef(st, 2)
	if err != nil {
		return err
	}
	in := asm.Instr{Pseudo: asm.CaseLoad, Label: label,
		IndexR:  int(r.slots[index.slot]),
		Scratch: int(r.slots[scratch.slot])}
	ix := r.emit(in)
	r.prog.Instrs[ix].PoolIx = r.prog.AddPoolLabel(label)
	return nil
}

// semCommon establishes a common subexpression: its number, use count,
// register home, and the temporary storage location the shaper allocated
// (section 4.4).
func (r *run) semCommon(st *tmplStep, w cse.Width) error {
	if len(st.opds) != 5 {
		return fmt.Errorf("common declaration expects cse, count, register, displacement, base")
	}
	id, err := r.stepVal(st, 0)
	if err != nil {
		return err
	}
	count, err := r.stepVal(st, 1)
	if err != nil {
		return err
	}
	regRef, err := r.stepRef(st, 2)
	if err != nil {
		return err
	}
	disp, err := r.stepVal(st, 3)
	if err != nil {
		return err
	}
	base, err := r.stepVal(st, 4)
	if err != nil {
		return err
	}
	if regRef.class == "" {
		return fmt.Errorf("common register operand %s.%d is not a register", r.gr.SymName(regRef.ref.Sym), regRef.ref.Tag)
	}
	reg := int(r.slots[regRef.slot])
	if _, err := r.cses.Define(id, int(count), regRef.class, reg,
		cse.Home{Disp: disp, Base: int(base)}, w); err != nil {
		return err
	}
	// The register home carries the outstanding uses in addition to the
	// use the production itself consumes.
	r.ra.IncUse(regRef.class, reg, int(count))
	return nil
}

// semFindCommon resolves a use of a common subexpression: if it still
// resides in a register, that register value is prefixed to the input
// stream; if it resides only in memory, the address of the CSE is
// prefixed instead and the ordinary load productions reduce it.
func (r *run) semFindCommon(st *tmplStep) error {
	if len(st.opds) != 2 {
		return fmt.Errorf("find_common expects cse number and destination register")
	}
	id, err := r.stepVal(st, 0)
	if err != nil {
		return err
	}
	destRef, err := r.stepRef(st, 1)
	if err != nil {
		return err
	}
	entry, _, err := r.cses.Use(id)
	if err != nil {
		return err
	}
	// The destination register the production allocated is not needed:
	// either the value is already in a register or the reload goes
	// through the ordinary productions. Release it.
	if r.allocMark[destRef.slot] {
		r.ra.DecUse(destRef.class, int(r.slots[destRef.slot]))
		r.allocMark[destRef.slot] = false
	}
	if entry.InRegister() {
		r.pushed = append(r.pushed, ir.Token{Sym: entry.Class, Val: int64(entry.Reg)})
		return nil
	}
	typeOp, ok := r.g.cfg.FindCommonType[entry.Width]
	if !ok {
		return fmt.Errorf("no IF type operator configured for %s common subexpressions", entry.Width)
	}
	r.pushed = append(r.pushed,
		ir.Token{Sym: typeOp},
		ir.Token{Sym: "dsp", Val: entry.Mem.Disp},
		ir.Token{Sym: "r", Val: int64(entry.Mem.Base)},
	)
	return nil
}

// semExtended implements the quadruple precision (128 bit) floating
// point storage operators as fullword-pair sequences over two long
// floating registers.
func (r *run) semExtended(st *tmplStep) error {
	rp, err := r.stepRef(st, 0)
	if err != nil {
		return err
	}
	freg := int(r.slots[rp.slot])
	switch st.op {
	case semClearExtended:
		opds := r.arena.alloc(2)
		opds[0] = asm.R(freg)
		opds[1] = asm.R(freg)
		r.emit(asm.Instr{Op: "sxr", Opds: opds, Comment: "zero extended register"})
		return nil
	case semLoadExtended, semStoreExtended:
		if len(st.opds) != 2 {
			return fmt.Errorf("%s expects a register and a storage operand", st.name)
		}
		mem, err := r.resolveOpd(&st.opds[1])
		if err != nil {
			return err
		}
		if mem.Kind != asm.Mem {
			return fmt.Errorf("%s needs a storage operand", st.name)
		}
		op := "ld"
		if st.op == semStoreExtended {
			op = "std"
		}
		hi := mem
		lo := mem
		lo.Val += 8
		opds := r.arena.alloc(2)
		opds[0] = asm.R(freg)
		opds[1] = hi
		r.emit(asm.Instr{Op: op, Opds: opds})
		opds = r.arena.alloc(2)
		opds[0] = asm.R(freg + 2)
		opds[1] = lo
		r.emit(asm.Instr{Op: op, Opds: opds})
		return nil
	}
	return fmt.Errorf("extended operator %q is not implemented", st.name)
}
