package s370

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAssembleGolden(t *testing.T) {
	cases := []struct {
		text string
		want []byte
	}{
		{"lr r1,r2", []byte{0x18, 0x12}},
		{"l r1,100(r3,r13)", []byte{0x58, 0x13, 0xD0, 0x64}},
		{"l r1,100(r13)", []byte{0x58, 0x10, 0xD0, 0x64}},
		{"bc 8,0x123(r11)", []byte{0x47, 0x80, 0xB1, 0x23}},
		{"bcr 15,r14", []byte{0x07, 0xFE}},
		{"sla r1,2", []byte{0x8B, 0x10, 0x00, 0x02}},
		{"stm r14,r12,0(r13)", []byte{0x90, 0xEC, 0xD0, 0x00}},
		{"mvi 10(r13),1", []byte{0x92, 0x01, 0xD0, 0x0A}},
		{"mvc 8(7,r13),16(r13)", []byte{0xD2, 0x07, 0xD0, 0x08, 0xD0, 0x10}},
	}
	for _, c := range cases {
		got, err := AssembleTo(c.text)
		if err != nil {
			t.Fatalf("AssembleTo(%q): %v", c.text, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%q: % X, want % X", c.text, got, c.want)
		}
	}
}

func TestAssembleProgram(t *testing.T) {
	b, err := AssembleTo(`
* a tiny routine
  l   r1,96(r13)      ; load X
  a   r1,100(r13)
  st  r1,96(r13)
  bcr 15,r14
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 14 {
		t.Errorf("assembled %d bytes, want 14", len(b))
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, bad := range []string{
		"nosuch r1,r2",
		"l r1",            // missing operand
		"l r1,5000(r13)",  // displacement too large
		"lr r1,r16",       // bad register
		"l r1,100(r3,r13", // unbalanced
		"mvi 10(r13),300", // immediate out of range
	} {
		if _, err := AssembleTo(bad); err == nil {
			t.Errorf("AssembleTo(%q) succeeded", bad)
		}
	}
}

// TestQuickFormatAssembleRoundTrip: formatting a random instruction and
// assembling the text reproduces the original encoding.
func TestQuickFormatAssembleRoundTrip(t *testing.T) {
	m := NewMachine(0x8000)
	names := make([]string, 0, len(Ops))
	for name := range Ops {
		names = append(names, name)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 12; trial++ {
			name := names[r.Intn(len(names))]
			info, _ := Lookup(name)
			in := randomInstr(r, name, info)
			b1, err := m.Encode(nil, &in)
			if err != nil {
				return false
			}
			text := string(m.AppendFormat(nil, &in))
			// Register-count shifts format as 0(rN); assemble handles it.
			b2, err := AssembleTo(text)
			if err != nil {
				t.Logf("assemble %q: %v", text, err)
				return false
			}
			if !bytes.Equal(b1, b2) {
				t.Logf("%q: % X vs % X", text, b1, b2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestAssembleMatchesRuntimeStubs: the hand-encoded constant-area stubs
// agree with their assembly-text form.
func TestAssembleMatchesRuntimeStub(t *testing.T) {
	got, err := AssembleTo(`
  st  r13,2112(r13)
  la  r13,2048(r13)
  bcr 15,r14
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x50, 0xD0, 0xD8, 0x40, // st r13,2112(r13)
		0x41, 0xD0, 0xD8, 0x00, // la r13,2048(r13)
		0x07, 0xFE,
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stub: % X, want % X", got, want)
	}
	_ = strings.TrimSpace("")
}
