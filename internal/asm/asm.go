// Package asm defines the machine-neutral instruction container that the
// generated code generator emits into, and the Machine interface each
// target implements. Retargeting the code generator "merely requires a
// rewriting of the templates associated with productions and minor
// modifications of the routines which actually emit the machine
// instructions" (paper section 6); those routines are the Machine.
package asm

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// OpdKind classifies instruction operands.
type OpdKind uint8

const (
	Reg     OpdKind = iota // register
	Imm                    // immediate: mask, shift count, SI byte
	Mem                    // disp(index,base)
	MemLen                 // disp(length,base), SS form
	LabelOp                // label reference (pseudo instructions only)
)

// Operand is one fully resolved instruction operand. Register numbers and
// displacements are final; only label references remain symbolic until
// layout.
type Operand struct {
	Kind  OpdKind
	Reg   int
	Val   int64 // immediate, displacement, or label id
	Index int
	Base  int
	Len   int64
}

// R makes a register operand.
func R(n int) Operand { return Operand{Kind: Reg, Reg: n} }

// I makes an immediate operand.
func I(v int64) Operand { return Operand{Kind: Imm, Val: v} }

// M makes a disp(index,base) memory operand.
func M(disp int64, index, base int) Operand {
	return Operand{Kind: Mem, Val: disp, Index: index, Base: base}
}

// ML makes a disp(length,base) memory operand for SS instructions.
func ML(disp, length int64, base int) Operand {
	return Operand{Kind: MemLen, Val: disp, Len: length, Base: base}
}

// L makes a label-reference operand.
func L(label int64) Operand { return Operand{Kind: LabelOp, Val: label} }

// PseudoKind marks instructions that the target rewrites at layout time.
type PseudoKind uint8

const (
	None      PseudoKind = iota
	Branch               // conditional branch to a label (span dependent)
	CaseLoad             // branch-table dispatch: load table entry, branch
	AddrConst            // 4-byte in-code address constant (label_pntr)
	LabelMark            // zero-size marker defining a label position
)

// Instr is one emitted instruction or pseudo instruction.
type Instr struct {
	Op      string
	Opds    []Operand
	Comment string
	Stmt    int // source statement number, from stmt_record

	Pseudo  PseudoKind
	Cond    int64 // Branch: condition mask
	Label   int64 // Branch/AddrConst/LabelMark/CaseLoad: label id
	Scratch int   // Branch/CaseLoad: register for the long form
	IndexR  int   // CaseLoad: index register
	Long    bool  // Branch: long form selected by relaxation
	PoolIx  int   // literal pool slot for the long form; -1 if none

	Addr int // byte address, assigned by Layout
	Size int // bytes, assigned by Layout
}

// PoolEntry is one literal-pool word (an address constant).
type PoolEntry struct {
	Label   int64 // label whose address the entry holds, when IsLabel
	IsLabel bool
	Value   int64 // explicit value otherwise
}

// Program is the code buffer for one compilation unit plus its literal
// pool and the label dictionary entries gathered while parsing the IF.
type Program struct {
	Name   string
	Instrs []Instr

	// Labels maps a label id to the index of the instruction it precedes
	// (len(Instrs) labels the end). Negative ids are generator-internal.
	Labels map[int64]int

	Pool []PoolEntry

	Origin     int // load address of the code
	PoolOrigin int // load address of the literal pool
	CodeSize   int // bytes, assigned by Layout

	// AbortSites records `abort` semantic operator interpretations:
	// instruction index -> abort code.
	AbortSites map[int]int64
	// CallArgs records `list_request` interpretations: instruction
	// index -> argument count.
	CallArgs map[int]int64
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:       name,
		Labels:     make(map[int64]int),
		AbortSites: make(map[int]int64),
		CallArgs:   make(map[int]int64),
	}
}

// Reset empties the program for a new compilation unit, keeping the
// instruction and pool buffers (and map storage) for reuse. The previous
// unit's instructions are zeroed, so the spare capacity holds no operand
// slice pinning an operand arena chunk the session has since outgrown.
func (p *Program) Reset(name string) {
	p.Name = name
	clear(p.Instrs)
	p.Instrs = p.Instrs[:0]
	clear(p.Labels)
	p.Pool = p.Pool[:0]
	p.Origin = 0
	p.PoolOrigin = 0
	p.CodeSize = 0
	clear(p.AbortSites)
	clear(p.CallArgs)
}

// Append adds an instruction and returns its index.
func (p *Program) Append(in Instr) int {
	in.PoolIx = -1
	p.Instrs = append(p.Instrs, in)
	return len(p.Instrs) - 1
}

// DefineLabel records that label id labels the position before
// instruction index instr.
func (p *Program) DefineLabel(id int64, instr int) error {
	if old, dup := p.Labels[id]; dup && old != instr {
		return fmt.Errorf("asm: label %d defined at both instruction %d and %d", id, old, instr)
	}
	p.Labels[id] = instr
	return nil
}

// LabelAddr returns the byte address of a label after Layout.
func (p *Program) LabelAddr(id int64) (int, error) {
	ix, ok := p.Labels[id]
	if !ok {
		return 0, fmt.Errorf("asm: undefined label %d", id)
	}
	if ix == len(p.Instrs) {
		return p.Origin + p.CodeSize, nil
	}
	return p.Instrs[ix].Addr, nil
}

// AddPoolLabel allocates (or reuses) a pool slot holding the address of
// label id and returns its index.
func (p *Program) AddPoolLabel(id int64) int {
	for i, e := range p.Pool {
		if e.IsLabel && e.Label == id {
			return i
		}
	}
	p.Pool = append(p.Pool, PoolEntry{Label: id, IsLabel: true})
	return len(p.Pool) - 1
}

// PoolAddr returns the byte address of pool slot i.
func (p *Program) PoolAddr(i int) int { return p.PoolOrigin + 4*i }

// InstructionCount returns the number of real machine instructions
// (pseudo markers and address constants excluded), the unit of the
// Appendix 1 comparisons.
func (p *Program) InstructionCount() int {
	n := 0
	for i := range p.Instrs {
		switch p.Instrs[i].Pseudo {
		case LabelMark, AddrConst:
		case Branch:
			n++
			if p.Instrs[i].Long {
				n++ // load of the target address from the pool
			}
		case CaseLoad:
			n += 4
		default:
			n++
		}
	}
	return n
}

// Machine is implemented by each target architecture.
type Machine interface {
	// Name returns the target name ("s370", "risc32").
	Name() string
	// SizeOf returns the byte size of an instruction in its current form
	// (pseudo branches report their short or long form per in.Long).
	SizeOf(in *Instr) (int, error)
	// ShortBranchReach reports whether a branch at the given address can
	// reach target in its short form.
	ShortBranchReach(p *Program, branchAddr, target int) bool
	// Encode produces the final bytes of one laid-out instruction.
	// Pseudo instructions expand to their full sequences.
	Encode(p *Program, in *Instr) ([]byte, error)
	// AppendFormat appends one instruction, rendered in the target
	// assembly syntax, to dst and returns the extended buffer.
	AppendFormat(dst []byte, in *Instr) []byte
}

// Pad appends spaces to dst until the text from dst[start:] on is width
// characters wide, counting runes as fmt's %-*s does. Text already that
// wide gets nothing.
func Pad(dst []byte, start, width int) []byte {
	for n := utf8.RuneCount(dst[start:]); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}

// AppendLabel appends the listing name of label id, "L<id>".
func AppendLabel(dst []byte, id int64) []byte {
	return strconv.AppendInt(append(dst, 'L'), id, 10)
}

// labelAt is one listed label: id labels the position before
// instruction ix.
type labelAt struct {
	ix int
	id int64
}

// Listing renders the program as a human-readable assembly listing: a
// header line, then one line per instruction (address, text padded to
// 36 columns when a comment follows, comment), with an "L<id>:" line
// before each labelled position. Negative (generator-internal) label
// ids are not listed.
func Listing(p *Program, m Machine) string {
	// Labels sharing an instruction print in id order; map iteration
	// order must not leak into the listing (it is diffed byte-for-byte
	// across runs and processes).
	lbls := make([]labelAt, 0, len(p.Labels))
	for id, ix := range p.Labels {
		if id >= 0 && ix >= 0 && ix <= len(p.Instrs) {
			lbls = append(lbls, labelAt{ix, id})
		}
	}
	slices.SortFunc(lbls, func(a, b labelAt) int {
		if a.ix != b.ix {
			return cmp.Compare(a.ix, b.ix)
		}
		return cmp.Compare(a.id, b.id)
	})

	b := make([]byte, 0, 64+len(p.Name)+listingLineBytes*len(p.Instrs)+8*len(lbls))
	b = append(b, "* "...)
	b = append(b, p.Name...)
	b = append(b, "  ("...)
	b = append(b, m.Name()...)
	b = append(b, ", origin "...)
	b = appendHex(b, p.Origin, "0x", 0)
	b = append(b, ")\n"...)
	for i := range p.Instrs {
		for len(lbls) > 0 && lbls[0].ix == i {
			b = append(AppendLabel(b, lbls[0].id), ":\n"...)
			lbls = lbls[1:]
		}
		in := &p.Instrs[i]
		if in.Pseudo == LabelMark {
			continue
		}
		b = appendHex(b, in.Addr, "", 8)
		b = append(b, "  "...)
		start := len(b)
		b = m.AppendFormat(b, in)
		if in.Comment != "" {
			b = append(Pad(b, start, 36), ' ')
			b = append(b, in.Comment...)
		}
		b = append(b, '\n')
	}
	for len(lbls) > 0 && lbls[0].ix == len(p.Instrs) {
		b = append(AppendLabel(b, lbls[0].id), ":\n"...)
		lbls = lbls[1:]
	}
	return string(b)
}

// listingLineBytes sizes Listing's buffer: an instruction line is the
// 10-byte address field, about 20 bytes of text, and the newline;
// commented lines run longer and are rare.
const listingLineBytes = 40

// appendHex appends v in lower-case hexadecimal after prefix,
// zero-padded to width digits counting a minus sign, as fmt's %08x
// (prefix "", width 8) and %#x (prefix "0x", width 0) render it.
func appendHex(dst []byte, v int, prefix string, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	dst = append(dst, prefix...)
	var digits [16]byte
	d := strconv.AppendUint(digits[:0], u, 16)
	for n := len(d); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}
