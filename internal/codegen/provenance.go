package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"cogg/internal/asm"
)

// Derivation provenance: the paper's central inspectability claim made
// concrete. Every instruction a table-driven generator emits is the
// consequence of one SLR reduction firing one of a production's
// templates (or one register decision forced by a need eviction), so
// the mapping instruction -> (production, template, operand sources)
// exists by construction — this file records it. Recording is opt-in
// per session (EnableProvenance): the hot path pays one boolean test
// per emitted instruction when off.

// ProvEntry kinds.
const (
	// ProvTemplate is an ordinary machine-instruction template filled
	// verbatim from the production.
	ProvTemplate = "template"
	// ProvSemantic is an instruction emitted by a semantic operator's
	// intervention (push_odd loads, branches, abort calls, ...).
	ProvSemantic = "semantic"
	// ProvEvictMove is the register-to-register copy materializing a
	// `need` eviction during the production's up-front allocation.
	ProvEvictMove = "evict-move"
)

// ProvEntry maps one emitted instruction back to its derivation: the
// production whose reduction emitted it, the template (by index within
// the production and specification source line), and the operand
// sources (tagged grammar references resolved against the translation
// stack and the register allocations).
type ProvEntry struct {
	// Instr is the instruction's index in emission order — the same
	// index the listing and Program.Instrs use.
	Instr int    `json:"instr"`
	Op    string `json:"op"`
	Kind  string `json:"kind"`
	// Prod is the production number (1-based specification order) whose
	// reduction emitted the instruction.
	Prod     int    `json:"production"`
	ProdText string `json:"production_text,omitempty"`
	// Template is the template's index within the production (0-based)
	// and TemplateLine its specification source line. Unset for
	// evict-moves, which precede every template.
	Template     int    `json:"template,omitempty"`
	TemplateLine int    `json:"template_line,omitempty"`
	Operator     string `json:"operator,omitempty"` // template opcode or semantic operator
	// Operands renders each resolved operand, prefixed source=resolved
	// when the template operand is a tagged reference ("r.1=R5",
	// "dsp.1(r.13)=96(R13)").
	Operands []string `json:"operands,omitempty"`
	Stmt     int      `json:"stmt,omitempty"` // source statement, from stmt_record
}

// EnableProvenance turns derivation recording on or off for subsequent
// Generate calls on this session.
func (s *Session) EnableProvenance(on bool) { s.r.provEnabled = on }

// Provenance returns the derivation entries of the last Generate call.
// A blocked or failed translation keeps the entries recorded up to the
// failure — the best-effort emission the blocked-parse recovery
// produced — which is exactly what the 422 diagnosis path wants. The
// slice is session-owned: valid until the next Generate call.
func (s *Session) Provenance() []ProvEntry { return s.r.prov }

// recordProv appends the provenance entry for the instruction just
// emitted at index ix, attributing it to the current reduction state.
func (r *run) recordProv(ix int) {
	in := &r.prog.Instrs[ix]
	e := ProvEntry{
		Instr: ix,
		Op:    provOpName(in),
		Stmt:  r.stmtNum,
	}
	if pl := r.curPlan; pl != nil {
		e.Prod = pl.prod.Num
		e.ProdText = r.gr.ProdString(pl.prod)
	}
	st := r.curStep
	switch {
	case r.provMove:
		e.Kind = ProvEvictMove
		st = nil
	case st != nil && st.op == semMachine:
		e.Kind = ProvTemplate
	case st != nil:
		e.Kind = ProvSemantic
	default:
		e.Kind = ProvSemantic
	}
	if st != nil {
		e.Template = st.tix
		e.TemplateLine = st.t.Line
		e.Operator = st.name
	}
	// Operand sources line up with the plan's operands only for plain
	// template fills; semantic interventions synthesize their own
	// operand lists.
	var src *tmplStep
	if e.Kind == ProvTemplate {
		src = st
	}
	for oi := range in.Opds {
		desc := provOperandString(&in.Opds[oi])
		if src != nil && oi < len(src.opds) {
			if s := r.provSource(&src.opds[oi]); s != "" {
				desc = s + "=" + desc
			}
		}
		e.Operands = append(e.Operands, desc)
	}
	r.prov = append(r.prov, e)
}

// provSource renders a template operand's source form: tagged grammar
// references by name, literals by value; bare literals annotate nothing
// (the resolved operand already is the value).
func (r *run) provSource(o *opdPlan) string {
	atom := func(a *atomPlan) string {
		if a.slot == litSlot {
			return strconv.FormatInt(a.val, 10)
		}
		return r.gr.SymName(a.ref.Sym) + "." + strconv.Itoa(a.ref.Tag)
	}
	switch o.shape {
	case opdReg, opdImm:
		if o.base.slot == litSlot {
			return ""
		}
		return atom(&o.base)
	case opdMem:
		return atom(&o.base) + "(" + atom(&o.b) + ")"
	case opdMemIdx:
		return atom(&o.base) + "(" + atom(&o.x) + "," + atom(&o.b) + ")"
	case opdMemLen:
		return atom(&o.base) + "(" + atom(&o.x) + "," + atom(&o.b) + ")"
	}
	return ""
}

func provOpName(in *asm.Instr) string {
	if in.Op != "" {
		return in.Op
	}
	switch in.Pseudo {
	case asm.Branch:
		return "branch"
	case asm.CaseLoad:
		return "case_load"
	case asm.AddrConst:
		return "addr_const"
	case asm.LabelMark:
		return "label"
	}
	return "?"
}

func provOperandString(o *asm.Operand) string {
	switch o.Kind {
	case asm.Reg:
		return "R" + strconv.Itoa(o.Reg)
	case asm.Imm:
		return strconv.FormatInt(o.Val, 10)
	case asm.Mem:
		if o.Index != 0 {
			return fmt.Sprintf("%d(R%d,R%d)", o.Val, o.Index, o.Base)
		}
		return fmt.Sprintf("%d(R%d)", o.Val, o.Base)
	case asm.MemLen:
		return fmt.Sprintf("%d(%d,R%d)", o.Val, o.Len, o.Base)
	case asm.LabelOp:
		return "L" + strconv.FormatInt(o.Val, 10)
	}
	return "?"
}

// FormatProvenance renders entries as a table, one line per
// instruction:
//
//	0  l      <- prod 12 [template 0 @ line 34]  r.1=R5, fullword dsp.1(r.13)=96(R13)
//	   r.1 ::= fullword dsp.1 r.2
func FormatProvenance(entries []ProvEntry) string {
	var b strings.Builder
	lastProd := -1
	for _, e := range entries {
		via := ""
		switch e.Kind {
		case ProvTemplate:
			via = fmt.Sprintf("template %d @ line %d", e.Template, e.TemplateLine)
		case ProvSemantic:
			via = fmt.Sprintf("semantic %s @ line %d", e.Operator, e.TemplateLine)
		case ProvEvictMove:
			via = "evict-move"
		}
		fmt.Fprintf(&b, "%4d  %-8s <- prod %-3d [%s]", e.Instr, e.Op, e.Prod, via)
		if len(e.Operands) > 0 {
			fmt.Fprintf(&b, "  %s", strings.Join(e.Operands, ", "))
		}
		b.WriteByte('\n')
		if e.Prod != lastProd && e.ProdText != "" {
			fmt.Fprintf(&b, "      %s\n", e.ProdText)
			lastProd = e.Prod
		}
	}
	return b.String()
}
