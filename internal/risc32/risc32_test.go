package risc32

import (
	"bytes"
	"strings"
	"testing"

	"cogg/internal/asm"
)

func TestUniformSizes(t *testing.T) {
	m := &Machine{}
	for op := range opNum {
		in := asm.Instr{Op: op}
		if n, err := m.SizeOf(&in); err != nil || n != 4 {
			t.Errorf("SizeOf(%s) = %d, %v", op, n, err)
		}
	}
	for _, tc := range []struct {
		in   asm.Instr
		want int
	}{
		{asm.Instr{Pseudo: asm.LabelMark}, 0},
		{asm.Instr{Pseudo: asm.AddrConst}, 4},
		{asm.Instr{Pseudo: asm.Branch}, 4},
		{asm.Instr{Pseudo: asm.CaseLoad}, 12},
	} {
		if n, _ := m.SizeOf(&tc.in); n != tc.want {
			t.Errorf("pseudo size %d, want %d", n, tc.want)
		}
	}
	if _, err := m.SizeOf(&asm.Instr{Op: "bogus"}); err == nil {
		t.Error("unknown opcode sized")
	}
}

func TestEncodeShapes(t *testing.T) {
	m := &Machine{}
	cases := []struct {
		in   asm.Instr
		want []byte
	}{
		{asm.Instr{Op: "add", Opds: []asm.Operand{asm.R(1), asm.R(2), asm.R(3)}},
			[]byte{0x10, 0x12, 0x30, 0x00}},
		{asm.Instr{Op: "ldw", Opds: []asm.Operand{asm.R(4), asm.M(100, 0, 13)}},
			[]byte{0x01, 0x4D, 0x00, 0x64}},
		{asm.Instr{Op: "li", Opds: []asm.Operand{asm.R(2), asm.I(300)}},
			[]byte{0x31, 0x20, 0x01, 0x2C}},
		{asm.Instr{Op: "ret"}, []byte{0x40, 0x00, 0x00, 0x00}},
	}
	for _, c := range cases {
		got, err := m.Encode(nil, &c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in.Op, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: % X, want % X", c.in.Op, got, c.want)
		}
	}
}

func TestEncodeRejectsIndexing(t *testing.T) {
	m := &Machine{}
	in := asm.Instr{Op: "ldw", Opds: []asm.Operand{asm.R(1), asm.M(0, 2, 13)}}
	if _, err := m.Encode(nil, &in); err == nil {
		t.Error("indexed addressing accepted on a load/store machine")
	}
}

func TestBranchRelative(t *testing.T) {
	m := &Machine{}
	p := asm.NewProgram("T")
	p.Origin = 0x1000
	p.Append(asm.Instr{Pseudo: asm.Branch, Cond: 8, Label: 1})
	p.Instrs[0].Addr = 0x1000
	_ = p.DefineLabel(1, 1)
	p.CodeSize = 4
	b, err := m.Encode(p, &p.Instrs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Displacement = 4 (to the end).
	if b[2] != 0 || b[3] != 4 {
		t.Errorf("branch displacement % X", b)
	}
	if !m.ShortBranchReach(p, 0x1000, 0x1000+30000) {
		t.Error("16-bit displacement should reach 30000 bytes")
	}
	if m.ShortBranchReach(p, 0x1000, 0x1000+40000) {
		t.Error("16-bit displacement cannot reach 40000 bytes")
	}
}

func TestFormat(t *testing.T) {
	m := &Machine{}
	in := asm.Instr{Op: "add", Opds: []asm.Operand{asm.R(1), asm.R(2), asm.R(3)}}
	if got := strings.TrimSpace(string(m.AppendFormat(nil, &in))); got != "add   r1,r2,r3" {
		t.Errorf("Format = %q", got)
	}
	br := asm.Instr{Pseudo: asm.Branch, Cond: 8, Label: 3}
	if got := string(m.AppendFormat(nil, &br)); !strings.Contains(got, "L3") {
		t.Errorf("branch format %q", got)
	}
}
