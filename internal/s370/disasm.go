package s370

import (
	"fmt"
	"strings"

	"cogg/internal/asm"
)

// Disassemble decodes the instruction at the head of buf into the same
// operand shapes the encoder accepts, returning the instruction and its
// byte length. Pseudo instructions cannot be recovered (a long branch
// disassembles as its L/BCR pair).
func Disassemble(buf []byte) (asm.Instr, int, error) {
	if len(buf) < 2 {
		return asm.Instr{}, 0, fmt.Errorf("s370: short instruction (%d bytes)", len(buf))
	}
	info, ok := Decode(buf[0])
	if !ok {
		return asm.Instr{}, 0, fmt.Errorf("s370: unknown opcode %#02x", buf[0])
	}
	size := info.Format.Size()
	if len(buf) < size {
		return asm.Instr{}, 0, fmt.Errorf("s370: truncated %s (%d of %d bytes)", info.Name, len(buf), size)
	}
	in := asm.Instr{Op: info.Name}
	switch info.Format {
	case RR:
		r1, r2 := int(buf[1]>>4), int(buf[1]&0xF)
		if info.Mask {
			in.Opds = []asm.Operand{asm.I(int64(r1)), asm.R(r2)}
		} else {
			in.Opds = []asm.Operand{asm.R(r1), asm.R(r2)}
		}
	case RX:
		r1 := int(buf[1] >> 4)
		x2 := int(buf[1] & 0xF)
		b2 := int(buf[2] >> 4)
		d2 := int64(buf[2]&0xF)<<8 | int64(buf[3])
		first := asm.R(r1)
		if info.Mask {
			first = asm.I(int64(r1))
		}
		in.Opds = []asm.Operand{first, asm.M(d2, x2, b2)}
	case RS:
		r1 := int(buf[1] >> 4)
		r3 := int(buf[1] & 0xF)
		b2 := int(buf[2] >> 4)
		d2 := int64(buf[2]&0xF)<<8 | int64(buf[3])
		if info.Shift {
			if b2 == 0 {
				in.Opds = []asm.Operand{asm.R(r1), asm.I(d2)}
			} else {
				in.Opds = []asm.Operand{asm.R(r1), asm.M(d2, 0, b2)}
			}
		} else {
			in.Opds = []asm.Operand{asm.R(r1), asm.R(r3), asm.M(d2, 0, b2)}
		}
	case SI:
		i2 := int64(buf[1])
		b1 := int(buf[2] >> 4)
		d1 := int64(buf[2]&0xF)<<8 | int64(buf[3])
		in.Opds = []asm.Operand{asm.M(d1, 0, b1), asm.I(i2)}
	case SS:
		l := int64(buf[1])
		b1 := int(buf[2] >> 4)
		d1 := int64(buf[2]&0xF)<<8 | int64(buf[3])
		b2 := int(buf[4] >> 4)
		d2 := int64(buf[4]&0xF)<<8 | int64(buf[5])
		in.Opds = []asm.Operand{asm.ML(d1, l, b1), asm.M(d2, 0, b2)}
	}
	return in, size, nil
}

// DisassembleAll renders a storage span as an assembly listing, one
// instruction per line with its address, for simulator debugging.
func DisassembleAll(m *Machine, buf []byte, origin int) string {
	var b strings.Builder
	pos := 0
	for pos < len(buf) {
		in, size, err := Disassemble(buf[pos:])
		if err != nil {
			fmt.Fprintf(&b, "%08x  .byte %#02x\n", origin+pos, buf[pos])
			pos++
			continue
		}
		fmt.Fprintf(&b, "%08x  %s\n", origin+pos, m.AppendFormat(nil, &in))
		pos += size
	}
	return b.String()
}
