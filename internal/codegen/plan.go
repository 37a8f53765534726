package codegen

import (
	"cogg/internal/grammar"
)

// This file precompiles each production into a prodPlan at Generator
// construction time. The code emission routine of the paper's section 3
// is interpretive — it resolves tagged references, classifies template
// operands, and dispatches semantic operators on every reduction — and
// the seed implementation paid for that interpretation with two map
// allocations per reduction. A prodPlan moves every decision that
// depends only on the specification out of the hot loop:
//
//   - tagged references become dense slot numbers (a production's
//     distinct bound refs, indexed 0..nslots-1), so bindings live in a
//     reusable []int64 instead of a map[grammar.Ref]int64;
//   - semantic operators become a semOp enum dispatched by jump table
//     instead of a string switch;
//   - template operands are classified once (register, immediate, or one
//     of the three storage shapes) with their atoms pre-resolved to slot
//     numbers or literal values.
//
// Plans change representation, not semantics: an operand error the old
// interpreter raised at reduction time (an unbound reference, a missing
// operand, a non-reference where one is required) is still raised at
// reduction time, from the same production, with the same message.

// semOp enumerates the semantic operators of the code emission routine.
// semMachine marks an ordinary machine-instruction template.
type semOp uint8

const (
	semMachine semOp = iota
	semUsing
	semNeed
	semModifies
	semIgnoreLHS
	semIBMLength
	semPushOdd
	semPushEven
	semLoadOddAddr
	semLoadOddFull
	semLoadOddHalf
	semLoadOddReg
	semLabelLocation
	semLabelPntr
	semBranch
	semBranchIndexed
	semSkip
	semCaseLoad
	semAbort
	semStmtRecord
	semListRequest
	semFullCommon
	semHalfCommon
	semByteCommon
	semRealCommon
	semDRealCommon
	semFindCommon
	semFindRealCommon
	semLoadExtended
	semStoreExtended
	semClearExtended
)

// Slot sentinels for atomPlan and refPlan.
const (
	litSlot     int32 = -1 // atom is a literal; use val
	unboundSlot int32 = -2 // reference never bound in this production
)

// atomPlan is one pre-resolved template atom: a literal value, a bound
// reference's slot, or a statically-unbound reference (kept for the
// runtime error it must still raise).
type atomPlan struct {
	slot int32
	val  int64       // literal value when slot == litSlot
	ref  grammar.Ref // the original reference, for diagnostics
}

// opdShape classifies a template operand once, at plan time.
type opdShape uint8

const (
	opdImm    opdShape = iota // scalar value
	opdReg                    // register-class reference
	opdMem                    // disp(base)
	opdMemIdx                 // disp(index,base)
	opdMemLen                 // disp(length,base), SS form
	opdBad                    // more than two address elements
)

// opdPlan is one pre-classified template operand.
type opdPlan struct {
	shape opdShape
	base  atomPlan // scalar value or displacement
	x     atomPlan // index or length
	b     atomPlan // base register
	nsub  int      // for the opdBad diagnostic
}

// refPlan pre-resolves an operand used as a bare tagged reference
// (refOperand in the interpretive version).
type refPlan struct {
	bare  bool // the operand is a bare tagged reference
	slot  int32
	ref   grammar.Ref
	class string // register class of ref.Sym, "" when none
}

// valPlan pre-resolves an operand used as a plain number (operandValue
// in the interpretive version).
type valPlan struct {
	scalar bool // the operand has no address form
	atom   atomPlan
}

// tmplStep is one compiled template.
type tmplStep struct {
	op     semOp
	t      *grammar.Template // error context (operator name, line)
	tix    int               // template index within the production, for provenance
	name   string            // operator name
	machOp string            // opcode for semMachine steps

	opds []opdPlan // full operand classification, for instruction templates
	refs []refPlan // per-operand bare-reference views
	vals []valPlan // per-operand scalar views
}

// allocStep is one `using` or `need` request.
type allocStep struct {
	slot  int32
	ref   grammar.Ref
	class string // "" raises the not-a-register-class error at runtime
}

// prodPlan is the compiled form of one production.
type prodPlan struct {
	prod   *grammar.Prod
	nslots int

	slotRef   []grammar.Ref // slot -> bound reference
	slotClass []string      // slot -> register class name, "" when none

	rhsSlot  []int32  // RHS position -> slot binding the popped value, -1 none
	rhsClass []string // RHS position -> register class name, "" when none

	uses  []allocStep
	needs []allocStep

	steps []tmplStep

	lambda      bool
	lhsClass    string
	lhsName     string
	lhsTag      int
	lhsSlot     int32 // slot of the {LHS, LHSTag} reference, -1 when unbound
	lhsFallback int32 // class-conversion source slot, -1 when none
}

// compilePlans builds the per-production plans for a generator.
func (g *Generator) compilePlans() {
	gr := g.mod.Grammar
	g.plans = make([]prodPlan, len(gr.Prods))
	for i, p := range gr.Prods {
		g.plans[i] = g.compileProd(p)
		if n := g.plans[i].nslots; n > g.maxSlots {
			g.maxSlots = n
		}
	}
}

func (g *Generator) compileProd(p *grammar.Prod) prodPlan {
	gr := g.mod.Grammar
	pl := prodPlan{
		prod:        p,
		lambda:      gr.IsLambda(p.LHS),
		lhsTag:      p.LHSTag,
		lhsSlot:     -1,
		lhsFallback: -1,
	}

	// Slots exist for exactly the statically-bound references: tagged RHS
	// occurrences plus the up-front `using`/`need` allocations. Template
	// references outside that set could never acquire a value and keep
	// the unboundSlot marker.
	//
	// Plan slices are sized up front from their bounds, so building a
	// plan never grows one.
	slotOf := map[grammar.Ref]int32{}
	nref := len(p.RHS) + len(p.Uses) + len(p.Needs)
	pl.slotRef = make([]grammar.Ref, 0, nref)
	pl.slotClass = make([]string, 0, nref)
	addSlot := func(ref grammar.Ref) int32 {
		if s, ok := slotOf[ref]; ok {
			return s
		}
		s := int32(len(pl.slotRef))
		slotOf[ref] = s
		pl.slotRef = append(pl.slotRef, ref)
		pl.slotClass = append(pl.slotClass, g.classOf(ref.Sym))
		return s
	}

	pl.rhsSlot = make([]int32, len(p.RHS))
	pl.rhsClass = make([]string, len(p.RHS))
	for i, sym := range p.RHS {
		pl.rhsSlot[i] = -1
		pl.rhsClass[i] = g.classOf(sym)
		if tag := p.RHSTags[i]; tag >= 0 {
			pl.rhsSlot[i] = addSlot(grammar.Ref{Sym: sym, Tag: tag})
		}
	}
	pl.uses = make([]allocStep, 0, len(p.Uses))
	pl.needs = make([]allocStep, 0, len(p.Needs))
	for _, ref := range p.Uses {
		pl.uses = append(pl.uses, allocStep{slot: addSlot(ref), ref: ref, class: g.classOf(ref.Sym)})
	}
	for _, ref := range p.Needs {
		pl.needs = append(pl.needs, allocStep{slot: addSlot(ref), ref: ref, class: g.classOf(ref.Sym)})
	}
	pl.nslots = len(pl.slotRef)

	atom := func(a grammar.Arg) atomPlan {
		if !a.IsRef {
			return atomPlan{slot: litSlot, val: a.Num}
		}
		ref := grammar.Ref{Sym: a.Sym, Tag: a.Tag}
		if s, ok := slotOf[ref]; ok {
			return atomPlan{slot: s, ref: ref}
		}
		return atomPlan{slot: unboundSlot, ref: ref}
	}
	opd := func(o *grammar.Operand) opdPlan {
		switch len(o.Sub) {
		case 0:
			if o.Base.IsRef && g.classOf(o.Base.Sym) != "" {
				return opdPlan{shape: opdReg, base: atom(o.Base)}
			}
			return opdPlan{shape: opdImm, base: atom(o.Base)}
		case 1:
			return opdPlan{shape: opdMem, base: atom(o.Base), b: atom(o.Sub[0])}
		case 2:
			// The first element is a length exactly when it is a terminal
			// reference; registers and register-number constants make it
			// an index (see the operand grammar in operand.go).
			sh := opdMemIdx
			if o.Sub[0].IsRef && gr.KindOf(o.Sub[0].Sym) == grammar.Terminal {
				sh = opdMemLen
			}
			return opdPlan{shape: sh, base: atom(o.Base), x: atom(o.Sub[0]), b: atom(o.Sub[1])}
		}
		return opdPlan{shape: opdBad, nsub: len(o.Sub)}
	}

	pl.steps = make([]tmplStep, 0, len(p.Templates))
	for ti := range p.Templates {
		t := &p.Templates[ti]
		st := tmplStep{t: t, tix: ti, name: gr.SymName(t.Op)}
		st.opds = make([]opdPlan, 0, len(t.Operands))
		st.refs = make([]refPlan, 0, len(t.Operands))
		st.vals = make([]valPlan, 0, len(t.Operands))
		if t.Semantic {
			st.op = semanticOps[st.name] // membership validated by New
		} else {
			st.op = semMachine
			st.machOp = st.name
		}
		for oi := range t.Operands {
			o := &t.Operands[oi]
			st.opds = append(st.opds, opd(o))

			rp := refPlan{}
			if len(o.Sub) == 0 && o.Base.IsRef {
				rp.bare = true
				rp.ref = grammar.Ref{Sym: o.Base.Sym, Tag: o.Base.Tag}
				rp.class = g.classOf(o.Base.Sym)
				if s, ok := slotOf[rp.ref]; ok {
					rp.slot = s
				} else {
					rp.slot = unboundSlot
				}
			}
			st.refs = append(st.refs, rp)
			st.vals = append(st.vals, valPlan{scalar: len(o.Sub) == 0, atom: atom(o.Base)})
		}
		pl.steps = append(pl.steps, st)
	}

	if !pl.lambda {
		pl.lhsClass = g.classOf(p.LHS)
		pl.lhsName = gr.SymName(p.LHS)
		lref := grammar.Ref{Sym: p.LHS, Tag: p.LHSTag}
		if s, ok := slotOf[lref]; ok {
			pl.lhsSlot = s
		}
		// Class-conversion fallback ("r.1 ::= d.1"): the value of a
		// same-tagged right-side nonterminal transfers to the left side.
		for s, ref := range pl.slotRef {
			if ref != lref && ref.Tag == p.LHSTag && gr.KindOf(ref.Sym) == grammar.Nonterminal {
				pl.lhsFallback = int32(s)
			}
		}
	}
	return pl
}
