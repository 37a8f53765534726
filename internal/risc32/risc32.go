// Package risc32 is a second target machine for the retargeting
// demonstration: a condition-code-based load/store architecture with
// uniform four-byte instructions and three-operand register arithmetic.
//
// Retargeting the code generator to it required only a new template file
// (specs/risc32.cogg) and this small emission module — no change to
// CoGG, the skeletal parser, or the semantic routines (paper section 6).
// No simulator is provided; the demonstration compares instruction
// sequences and code size.
package risc32

import (
	"fmt"
	"strconv"

	"cogg/internal/asm"
)

// opNum assigns encoding numbers to the mnemonics of the specification.
var opNum = map[string]byte{
	"ldw": 0x01, "ldh": 0x02, "ldb": 0x03,
	"stw": 0x04, "sth": 0x05, "stb": 0x06,
	"add": 0x10, "addi": 0x11, "sub": 0x12, "subi": 0x13,
	"mul": 0x14, "divq": 0x15, "rem": 0x16,
	"neg": 0x17, "abs": 0x18,
	"and": 0x20, "or": 0x21, "xor": 0x22, "xori": 0x23,
	"sll": 0x24, "srl": 0x25, "sra": 0x26, "slli": 0x27, "srai": 0x28,
	"cmp": 0x30, "li": 0x31, "mov": 0x32, "max": 0x33, "min": 0x34, "ret": 0x40,
}

const (
	opBranch = 0xE0 // cond in the register field, PC-relative displacement
	opLoadPC = 0xE4 // caseload helper
)

// Machine implements asm.Machine.
type Machine struct{}

var _ asm.Machine = (*Machine)(nil)

// Name implements asm.Machine.
func (m *Machine) Name() string { return "risc32" }

// SizeOf implements asm.Machine: every instruction is four bytes; a case
// dispatch is three of them.
func (m *Machine) SizeOf(in *asm.Instr) (int, error) {
	switch in.Pseudo {
	case asm.LabelMark:
		return 0, nil
	case asm.AddrConst:
		return 4, nil
	case asm.Branch:
		return 4, nil // PC-relative: always the short form
	case asm.CaseLoad:
		return 12, nil
	}
	if _, ok := opNum[in.Op]; !ok {
		return 0, fmt.Errorf("risc32: unknown opcode %q", in.Op)
	}
	return 4, nil
}

// ShortBranchReach implements asm.Machine: 16-bit PC-relative
// displacements cover every module this toolchain builds.
func (m *Machine) ShortBranchReach(p *asm.Program, branchAddr, target int) bool {
	d := target - branchAddr
	return d >= -(1<<15) && d < 1<<15
}

// Encode implements asm.Machine.
func (m *Machine) Encode(p *asm.Program, in *asm.Instr) ([]byte, error) {
	switch in.Pseudo {
	case asm.LabelMark:
		return nil, nil
	case asm.AddrConst:
		addr, err := p.LabelAddr(in.Label)
		if err != nil {
			return nil, err
		}
		return word(uint32(addr)), nil
	case asm.Branch:
		target, err := p.LabelAddr(in.Label)
		if err != nil {
			return nil, err
		}
		d := target - in.Addr
		return []byte{opBranch, byte(in.Cond << 4), byte(d >> 8), byte(d)}, nil
	case asm.CaseLoad:
		// ldw scratch,pool ; add scratch,scratch,index ; ldw scratch,0(scratch) — then
		// the branch is folded into the final load's writeback to PC.
		out := []byte{opLoadPC, byte(in.Scratch << 4), byte(in.PoolIx >> 8), byte(in.PoolIx)}
		out = append(out, opNum["add"], byte(in.Scratch<<4)|byte(in.IndexR), byte(in.Scratch<<4), 0)
		return append(out, opLoadPC|1, byte(in.Scratch<<4)|byte(in.Scratch), 0, 0), nil
	}
	num, ok := opNum[in.Op]
	if !ok {
		return nil, fmt.Errorf("risc32: unknown opcode %q", in.Op)
	}
	out := []byte{num, 0, 0, 0}
	regField := 0
	for _, o := range in.Opds {
		switch o.Kind {
		case asm.Reg:
			if regField < 2 {
				out[1] |= byte(o.Reg << (4 * (1 - regField)))
			} else {
				out[2] |= byte(o.Reg << 4)
			}
			regField++
		case asm.Imm:
			out[2] = byte(o.Val >> 8)
			out[3] = byte(o.Val)
		case asm.Mem:
			if o.Index != 0 {
				return nil, fmt.Errorf("risc32: %s: indexed addressing is not available", in.Op)
			}
			out[1] |= byte(o.Base)
			out[2] = byte(o.Val >> 8)
			out[3] = byte(o.Val)
		default:
			return nil, fmt.Errorf("risc32: %s: unsupported operand kind", in.Op)
		}
	}
	return out, nil
}

func word(v uint32) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// AppendFormat implements asm.Machine.
func (m *Machine) AppendFormat(dst []byte, in *asm.Instr) []byte {
	switch in.Pseudo {
	case asm.LabelMark:
		return append(asm.AppendLabel(dst, in.Label), ':')
	case asm.AddrConst:
		return asm.AppendLabel(append(dst, ".word "...), in.Label)
	case asm.Branch:
		dst = strconv.AppendInt(append(dst, "b."...), in.Cond, 10)
		return asm.AppendLabel(append(dst, "  "...), in.Label)
	case asm.CaseLoad:
		dst = asm.AppendLabel(append(dst, "case  "...), in.Label)
		dst = appendReg(append(dst, '['), in.IndexR)
		return appendReg(append(dst, "],"...), in.Scratch)
	}
	start := len(dst)
	dst = append(asm.Pad(append(dst, in.Op...), start, 5), ' ')
	for i, o := range in.Opds {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch o.Kind {
		case asm.Reg:
			dst = appendReg(dst, o.Reg)
		case asm.Imm:
			dst = strconv.AppendInt(dst, o.Val, 10)
		case asm.Mem:
			dst = strconv.AppendInt(dst, o.Val, 10)
			dst = append(appendReg(append(dst, '('), o.Base), ')')
		}
	}
	return dst
}

// appendReg appends register r as "r<n>".
func appendReg(dst []byte, r int) []byte {
	return strconv.AppendInt(append(dst, 'r'), int64(r), 10)
}
