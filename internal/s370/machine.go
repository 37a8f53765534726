package s370

import (
	"fmt"
	"strconv"

	"cogg/internal/asm"
)

// Machine implements asm.Machine for the S/370 subset. All memory
// references go through base registers with 12-bit displacements; the
// machine is configured with the conventional register assignments of
// the generated code generator's runtime.
type Machine struct {
	// CodeBase is the register holding the code origin at run time; short
	// branches are BC instructions based on it (addressability reaches
	// 4096 bytes — one page, paper section 4.2).
	CodeBase int
	// PoolBase is the register addressing the runtime constant area,
	// which contains the literal pool of branch-target addresses.
	PoolBase int
	// PoolBaseAddr is the run-time value of PoolBase.
	PoolBaseAddr int
}

// NewMachine returns the conventional configuration: r15 addresses code,
// r12 addresses the constant area loaded at poolBaseAddr.
func NewMachine(poolBaseAddr int) *Machine {
	return &Machine{CodeBase: 15, PoolBase: 12, PoolBaseAddr: poolBaseAddr}
}

var _ asm.Machine = (*Machine)(nil)

// Name implements asm.Machine.
func (m *Machine) Name() string { return "s370" }

// SizeOf implements asm.Machine.
func (m *Machine) SizeOf(in *asm.Instr) (int, error) {
	switch in.Pseudo {
	case asm.LabelMark:
		return 0, nil
	case asm.AddrConst:
		return 4, nil
	case asm.Branch:
		if in.Long {
			return 6, nil // L scratch,pool(poolBase) + BCR cond,scratch
		}
		return 4, nil // BC cond,disp(0,codeBase)
	case asm.CaseLoad:
		return 10, nil // L + L indexed + BCR
	}
	info, ok := Lookup(in.Op)
	if !ok {
		return 0, fmt.Errorf("s370: unknown opcode %q", in.Op)
	}
	return info.Format.Size(), nil
}

// ShortBranchReach implements asm.Machine: the short form addresses
// targets within 4095 bytes of the code origin.
func (m *Machine) ShortBranchReach(p *asm.Program, branchAddr, target int) bool {
	d := target - p.Origin
	return d >= 0 && d <= 4095
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
		return []byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}, nil
	case asm.Branch:
		return m.encodeBranch(p, in)
	case asm.CaseLoad:
		return m.encodeCaseLoad(p, in)
	}
	return m.encodePlain(in)
}

func (m *Machine) encodeBranch(p *asm.Program, in *asm.Instr) ([]byte, error) {
	target, err := p.LabelAddr(in.Label)
	if err != nil {
		return nil, err
	}
	if !in.Long {
		d := target - p.Origin
		if d < 0 || d > 4095 {
			return nil, fmt.Errorf("s370: short branch to %#x out of range of origin %#x", target, p.Origin)
		}
		return encodeRXRaw(0x47, int(in.Cond), int64(d), 0, m.CodeBase)
	}
	disp, err := m.poolDisp(p, in.PoolIx)
	if err != nil {
		return nil, err
	}
	load, err := encodeRXRaw(0x58, in.Scratch, disp, 0, m.PoolBase)
	if err != nil {
		return nil, err
	}
	return append(load, 0x07, byte(in.Cond<<4)|byte(in.Scratch)), nil
}

func (m *Machine) encodeCaseLoad(p *asm.Program, in *asm.Instr) ([]byte, error) {
	disp, err := m.poolDisp(p, in.PoolIx)
	if err != nil {
		return nil, err
	}
	out, err := encodeRXRaw(0x58, in.Scratch, disp, 0, m.PoolBase)
	if err != nil {
		return nil, err
	}
	entry, err := encodeRXRaw(0x58, in.Scratch, 0, in.IndexR, in.Scratch)
	if err != nil {
		return nil, err
	}
	out = append(out, entry...)
	return append(out, 0x07, byte(CondAlways<<4)|byte(in.Scratch)), nil
}

func (m *Machine) poolDisp(p *asm.Program, ix int) (int64, error) {
	if ix < 0 || ix >= len(p.Pool) {
		return 0, fmt.Errorf("s370: bad literal pool index %d", ix)
	}
	d := int64(p.PoolAddr(ix) - m.PoolBaseAddr)
	if d < 0 || d > 4095 {
		return 0, fmt.Errorf("s370: literal pool slot %d at displacement %d exceeds base register reach", ix, d)
	}
	return d, nil
}

func (m *Machine) encodePlain(in *asm.Instr) ([]byte, error) {
	info, ok := Lookup(in.Op)
	if !ok {
		return nil, fmt.Errorf("s370: unknown opcode %q", in.Op)
	}
	bad := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("s370: %s: %s", in.Op, fmt.Sprintf(format, args...))
	}
	switch info.Format {
	case RR:
		r1, ok1 := regOrMask(in.Opds, 0, info.Mask)
		r2, ok2 := regAt(in.Opds, 1)
		if !ok1 || !ok2 {
			return bad("expects two register operands, got %v", in.Opds)
		}
		return []byte{info.Code, byte(r1<<4) | byte(r2)}, nil
	case RX:
		r1, ok1 := regOrMask(in.Opds, 0, info.Mask)
		if !ok1 || len(in.Opds) != 2 || in.Opds[1].Kind != asm.Mem {
			return bad("expects register and storage operands, got %v", in.Opds)
		}
		mem := in.Opds[1]
		return encodeRXRaw(info.Code, r1, mem.Val, mem.Index, mem.Base)
	case RS:
		if info.Shift {
			r1, ok1 := regAt(in.Opds, 0)
			if !ok1 || len(in.Opds) != 2 {
				return bad("expects register and shift amount, got %v", in.Opds)
			}
			// The shift amount is the low bits of a d2(b2) effective
			// address: a plain immediate, or a register-held count.
			var amount int64
			base := 0
			switch in.Opds[1].Kind {
			case asm.Imm:
				amount = in.Opds[1].Val
			case asm.Mem:
				amount = in.Opds[1].Val
				base = in.Opds[1].Base
				if in.Opds[1].Index != 0 {
					return bad("shift operand cannot be indexed")
				}
			case asm.Reg:
				base = in.Opds[1].Reg // count in a register: 0(rN)
			default:
				return bad("bad shift operand %v", in.Opds[1])
			}
			if amount < 0 || amount > 4095 || !validReg(base) {
				return bad("shift amount %d out of range", amount)
			}
			return []byte{info.Code, byte(r1 << 4),
				byte(base<<4) | byte(amount>>8), byte(amount)}, nil
		}
		r1, ok1 := regAt(in.Opds, 0)
		r3, ok3 := regAt(in.Opds, 1)
		if !ok1 || !ok3 || len(in.Opds) != 3 || in.Opds[2].Kind != asm.Mem {
			return bad("expects two registers and a storage operand, got %v", in.Opds)
		}
		mem := in.Opds[2]
		if mem.Index != 0 {
			return bad("RS storage operand cannot be indexed")
		}
		if err := checkDisp(mem.Val); err != nil {
			return bad("%v", err)
		}
		return []byte{info.Code, byte(r1<<4) | byte(r3),
			byte(mem.Base<<4) | byte(mem.Val>>8), byte(mem.Val)}, nil
	case SI:
		if len(in.Opds) != 2 || in.Opds[0].Kind != asm.Mem || in.Opds[1].Kind != asm.Imm {
			return bad("expects storage and immediate operands, got %v", in.Opds)
		}
		mem, imm := in.Opds[0], in.Opds[1].Val
		if mem.Index != 0 {
			return bad("SI storage operand cannot be indexed")
		}
		if err := checkDisp(mem.Val); err != nil {
			return bad("%v", err)
		}
		if imm < 0 || imm > 255 {
			return bad("immediate %d out of byte range", imm)
		}
		return []byte{info.Code, byte(imm),
			byte(mem.Base<<4) | byte(mem.Val>>8), byte(mem.Val)}, nil
	case SS:
		if len(in.Opds) != 2 || in.Opds[0].Kind != asm.MemLen || in.Opds[1].Kind != asm.Mem {
			return bad("expects length-form and plain storage operands, got %v", in.Opds)
		}
		d1, d2 := in.Opds[0], in.Opds[1]
		if err := checkDisp(d1.Val); err != nil {
			return bad("%v", err)
		}
		if err := checkDisp(d2.Val); err != nil {
			return bad("%v", err)
		}
		if d1.Len < 0 || d1.Len > 255 {
			return bad("length code %d out of range", d1.Len)
		}
		if d2.Index != 0 {
			return bad("SS storage operand cannot be indexed")
		}
		return []byte{info.Code, byte(d1.Len),
			byte(d1.Base<<4) | byte(d1.Val>>8), byte(d1.Val),
			byte(d2.Base<<4) | byte(d2.Val>>8), byte(d2.Val)}, nil
	}
	return bad("unhandled format")
}

func encodeRXRaw(code byte, r1 int, disp int64, index, base int) ([]byte, error) {
	if err := checkDisp(disp); err != nil {
		return nil, fmt.Errorf("s370: opcode %#x: %w", code, err)
	}
	if !validReg(r1) || !validReg(index) || !validReg(base) {
		return nil, fmt.Errorf("s370: opcode %#x: register field out of range (%d,%d,%d)", code, r1, index, base)
	}
	return []byte{code, byte(r1<<4) | byte(index),
		byte(base<<4) | byte(disp>>8), byte(disp)}, nil
}

func checkDisp(d int64) error {
	if d < 0 || d > 4095 {
		return fmt.Errorf("displacement %d exceeds base register reach (0..4095)", d)
	}
	return nil
}

func validReg(r int) bool { return r >= 0 && r <= 15 }

// regAt reads a register operand. Immediates in the register range are
// accepted too: specification constants such as stack_base denote
// register numbers when they appear in register positions.
func regAt(opds []asm.Operand, i int) (int, bool) {
	if i >= len(opds) {
		return 0, false
	}
	switch opds[i].Kind {
	case asm.Reg:
		if validReg(opds[i].Reg) {
			return opds[i].Reg, true
		}
	case asm.Imm:
		if opds[i].Val >= 0 && opds[i].Val <= 15 {
			return int(opds[i].Val), true
		}
	}
	return 0, false
}

func regOrMask(opds []asm.Operand, i int, mask bool) (int, bool) {
	if i >= len(opds) {
		return 0, false
	}
	if mask {
		if opds[i].Kind != asm.Imm || opds[i].Val < 0 || opds[i].Val > 15 {
			return 0, false
		}
		return int(opds[i].Val), true
	}
	return regAt(opds, i)
}

// AppendFormat implements asm.Machine: assembler-style rendering.
func (m *Machine) AppendFormat(dst []byte, in *asm.Instr) []byte {
	switch in.Pseudo {
	case asm.LabelMark:
		return append(asm.AppendLabel(dst, in.Label), " equ *"...)
	case asm.AddrConst:
		return append(asm.AppendLabel(append(dst, "dc    a("...), in.Label), ')')
	case asm.Branch:
		if in.Long {
			dst = append(dst, "bc*   "...) // long form: load target address, branch via register
		} else {
			dst = append(dst, "bc    "...)
		}
		dst = strconv.AppendInt(dst, in.Cond, 10)
		return asm.AppendLabel(append(dst, ','), in.Label)
	case asm.CaseLoad:
		dst = asm.AppendLabel(append(dst, "case  "...), in.Label)
		dst = appendReg(append(dst, '('), in.IndexR)
		return appendReg(append(dst, "),"...), in.Scratch)
	}
	start := len(dst)
	dst = append(asm.Pad(append(dst, in.Op...), start, 5), ' ')
	info := Ops[in.Op]
	for i, o := range in.Opds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendOperand(dst, info, i, o)
	}
	return dst
}

func appendOperand(dst []byte, info OpInfo, i int, o asm.Operand) []byte {
	switch o.Kind {
	case asm.Reg:
		return appendReg(dst, o.Reg)
	case asm.Imm:
		// Specification constants in register positions (stack_base in
		// `stm r14,stack_base,...`) list as registers; a mask lists as
		// its value.
		if !(i == 0 && info.Mask) && regPosition(info, i) && o.Val >= 0 && o.Val <= 15 {
			return appendReg(dst, int(o.Val))
		}
		return strconv.AppendInt(dst, o.Val, 10)
	case asm.Mem:
		dst = strconv.AppendInt(dst, o.Val, 10)
		switch {
		case o.Index != 0 && o.Base != 0:
			dst = appendReg(append(dst, '('), o.Index)
			return append(appendReg(append(dst, ','), o.Base), ')')
		case o.Index != 0:
			return append(appendReg(append(dst, '('), o.Index), ",r0)"...)
		case o.Base != 0:
			return append(appendReg(append(dst, '('), o.Base), ')')
		}
		return dst
	case asm.MemLen:
		dst = strconv.AppendInt(append(strconv.AppendInt(dst, o.Val, 10), '('), o.Len, 10)
		return append(appendReg(append(dst, ','), o.Base), ')')
	case asm.LabelOp:
		return asm.AppendLabel(dst, o.Val)
	}
	return append(dst, '?')
}

// appendReg appends register r as "r<n>".
func appendReg(dst []byte, r int) []byte {
	return strconv.AppendInt(append(dst, 'r'), int64(r), 10)
}

// regPosition reports whether operand i of the instruction is a register
// field by format.
func regPosition(info OpInfo, i int) bool {
	switch info.Format {
	case RR:
		return true
	case RX:
		return i == 0
	case RS:
		return !info.Shift && i <= 1 || info.Shift && i == 0
	}
	return false
}
