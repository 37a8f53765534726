package s370

import (
	"bytes"
	"strings"
	"testing"

	"cogg/internal/asm"
)

func enc(t *testing.T, in asm.Instr) []byte {
	t.Helper()
	m := NewMachine(0x8000)
	b, err := m.Encode(nil, &in)
	if err != nil {
		t.Fatalf("Encode(%s): %v", in.Op, err)
	}
	return b
}

func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		in   asm.Instr
		want []byte
	}{
		{asm.Instr{Op: "lr", Opds: []asm.Operand{asm.R(1), asm.R(2)}},
			[]byte{0x18, 0x12}},
		{asm.Instr{Op: "ar", Opds: []asm.Operand{asm.R(7), asm.R(9)}},
			[]byte{0x1A, 0x79}},
		{asm.Instr{Op: "bcr", Opds: []asm.Operand{asm.I(15), asm.R(14)}},
			[]byte{0x07, 0xFE}},
		{asm.Instr{Op: "l", Opds: []asm.Operand{asm.R(1), asm.M(100, 3, 13)}},
			[]byte{0x58, 0x13, 0xD0, 0x64}},
		{asm.Instr{Op: "st", Opds: []asm.Operand{asm.R(2), asm.M(4095, 0, 12)}},
			[]byte{0x50, 0x20, 0xCF, 0xFF}},
		{asm.Instr{Op: "bc", Opds: []asm.Operand{asm.I(8), asm.M(0x123, 0, 11)}},
			[]byte{0x47, 0x80, 0xB1, 0x23}},
		{asm.Instr{Op: "sla", Opds: []asm.Operand{asm.R(1), asm.I(2)}},
			[]byte{0x8B, 0x10, 0x00, 0x02}},
		{asm.Instr{Op: "srda", Opds: []asm.Operand{asm.R(4), asm.I(32)}},
			[]byte{0x8E, 0x40, 0x00, 0x20}},
		{asm.Instr{Op: "sla", Opds: []asm.Operand{asm.R(1), asm.M(0, 0, 5)}},
			[]byte{0x8B, 0x10, 0x50, 0x00}}, // count in r5
		{asm.Instr{Op: "stm", Opds: []asm.Operand{asm.R(14), asm.R(12), asm.M(0, 0, 13)}},
			[]byte{0x90, 0xEC, 0xD0, 0x00}},
		{asm.Instr{Op: "mvi", Opds: []asm.Operand{asm.M(10, 0, 13), asm.I(1)}},
			[]byte{0x92, 0x01, 0xD0, 0x0A}},
		{asm.Instr{Op: "tm", Opds: []asm.Operand{asm.M(10, 0, 13), asm.I(0x80)}},
			[]byte{0x91, 0x80, 0xD0, 0x0A}},
		{asm.Instr{Op: "mvc", Opds: []asm.Operand{asm.ML(8, 7, 13), asm.M(16, 0, 13)}},
			[]byte{0xD2, 0x07, 0xD0, 0x08, 0xD0, 0x10}},
		{asm.Instr{Op: "mvcl", Opds: []asm.Operand{asm.R(2), asm.R(4)}},
			[]byte{0x0E, 0x24}},
		// A constant in a register position (stack_base = 13).
		{asm.Instr{Op: "l", Opds: []asm.Operand{asm.I(13), asm.M(64, 0, 13)}},
			[]byte{0x58, 0xD0, 0xD0, 0x40}},
	}
	for _, c := range cases {
		if got := enc(t, c.in); !bytes.Equal(got, c.want) {
			t.Errorf("%s: got % X, want % X", c.in.Op, got, c.want)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	m := NewMachine(0x8000)
	bad := []asm.Instr{
		{Op: "nosuch", Opds: []asm.Operand{asm.R(1)}},
		{Op: "l", Opds: []asm.Operand{asm.R(1), asm.M(4096, 0, 13)}}, // disp too big
		{Op: "l", Opds: []asm.Operand{asm.R(1)}},                     // missing operand
		{Op: "lr", Opds: []asm.Operand{asm.R(1), asm.M(0, 0, 2)}},    // wrong kind
		{Op: "sla", Opds: []asm.Operand{asm.R(1), asm.I(-1)}},        // bad shift
		{Op: "mvi", Opds: []asm.Operand{asm.M(0, 0, 13), asm.I(256)}},
		{Op: "mvc", Opds: []asm.Operand{asm.ML(0, 256, 13), asm.M(0, 0, 13)}},
		{Op: "mvc", Opds: []asm.Operand{asm.M(0, 0, 13), asm.M(0, 0, 13)}},     // missing length form
		{Op: "lm", Opds: []asm.Operand{asm.R(14), asm.R(12), asm.M(0, 3, 13)}}, // indexed RS
	}
	for _, in := range bad {
		if _, err := m.Encode(nil, &in); err == nil {
			t.Errorf("%s %v: encode succeeded, want error", in.Op, in.Opds)
		}
	}
}

func TestInstructionSizes(t *testing.T) {
	m := NewMachine(0x8000)
	cases := map[string]int{"lr": 2, "l": 4, "stm": 4, "mvi": 4, "mvc": 6, "sla": 4}
	for op, want := range cases {
		in := asm.Instr{Op: op}
		got, err := m.SizeOf(&in)
		if err != nil || got != want {
			t.Errorf("SizeOf(%s) = %d, %v; want %d", op, got, err, want)
		}
	}
}

func TestPseudoSizesAndEncoding(t *testing.T) {
	m := NewMachine(0x8000)
	p := asm.NewProgram("T")
	p.Origin = 0x1000
	p.PoolOrigin = 0x8800
	p.Append(asm.Instr{Pseudo: asm.Branch, Cond: 8, Label: 1, Scratch: 3})
	_ = p.DefineLabel(1, 1)

	short := &p.Instrs[0]
	short.Addr = 0x1000
	if n, _ := m.SizeOf(short); n != 4 {
		t.Errorf("short branch size %d", n)
	}
	p.CodeSize = 4
	b, err := m.Encode(p, short)
	if err != nil {
		t.Fatal(err)
	}
	// BC 8, disp(0, r11) with disp = 4 (label after instruction 0).
	if !bytes.Equal(b, []byte{0x47, 0x80, 0xF0, 0x04}) {
		t.Errorf("short branch encoding % X", b)
	}

	short.Long = true
	short.PoolIx = p.AddPoolLabel(1)
	if n, _ := m.SizeOf(short); n != 6 {
		t.Errorf("long branch size %d", n)
	}
	b, err = m.Encode(p, short)
	if err != nil {
		t.Fatal(err)
	}
	// L r3, pool(r12); BCR 8, r3 — pool slot 0 at 0x8800 - 0x8000 = 0x800.
	want := []byte{0x58, 0x30, 0xC8, 0x00, 0x07, 0x83}
	if !bytes.Equal(b, want) {
		t.Errorf("long branch encoding % X, want % X", b, want)
	}
}

func TestAddrConstEncoding(t *testing.T) {
	m := NewMachine(0x8000)
	p := asm.NewProgram("T")
	p.Origin = 0x1000
	p.Append(asm.Instr{Op: "lr", Opds: []asm.Operand{asm.R(1), asm.R(1)}})
	p.Append(asm.Instr{Pseudo: asm.AddrConst, Label: 5})
	_ = p.DefineLabel(5, 0)
	p.Instrs[0].Addr = 0x1000
	p.Instrs[1].Addr = 0x1002
	b, err := m.Encode(p, &p.Instrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x00, 0x00, 0x10, 0x00}) {
		t.Errorf("address constant % X", b)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for name := range Ops {
		info, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%s) failed", name)
		}
		back, ok := Decode(info.Code)
		if !ok {
			t.Errorf("Decode(%#x) failed for %s", info.Code, name)
			continue
		}
		if back.Name != name {
			t.Errorf("Decode(%#x) = %s, want %s", info.Code, back.Name, name)
		}
	}
}

func TestFormat(t *testing.T) {
	m := NewMachine(0x8000)
	cases := []struct {
		in   asm.Instr
		want string
	}{
		{asm.Instr{Op: "l", Opds: []asm.Operand{asm.R(1), asm.M(100, 3, 13)}}, "l     r1,100(r3,r13)"},
		{asm.Instr{Op: "ar", Opds: []asm.Operand{asm.R(1), asm.R(2)}}, "ar    r1,r2"},
		{asm.Instr{Op: "mvc", Opds: []asm.Operand{asm.ML(0, 7, 1), asm.M(0, 0, 2)}}, "mvc   0(7,r1),0(r2)"},
		{asm.Instr{Pseudo: asm.Branch, Cond: 8, Label: 4}, "bc    8,L4"},
		{asm.Instr{Pseudo: asm.AddrConst, Label: 2}, "dc    a(L2)"},
	}
	for _, c := range cases {
		if got := strings.TrimRight(string(m.AppendFormat(nil, &c.in)), " "); got != c.want {
			t.Errorf("AppendFormat = %q, want %q", got, c.want)
		}
	}
}

func TestShortBranchReach(t *testing.T) {
	m := NewMachine(0x8000)
	p := asm.NewProgram("T")
	p.Origin = 0x1000
	if !m.ShortBranchReach(p, 0x1000, 0x1FFF) {
		t.Error("target at origin+0xFFF must be reachable")
	}
	if m.ShortBranchReach(p, 0x1000, 0x2000) {
		t.Error("target at origin+0x1000 must not be reachable")
	}
	if m.ShortBranchReach(p, 0x1000, 0x0FFF) {
		t.Error("target below origin must not be reachable")
	}
}
