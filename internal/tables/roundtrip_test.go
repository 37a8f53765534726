package tables_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cogg/internal/grammar"
	"cogg/internal/lr"
	"cogg/internal/tables"
	"cogg/specs"
)

// randModule wraps a randomly generated table module for testing/quick.
// The generator respects the encoding's representational limits (14-bit
// action targets, 16-bit check entries, int16 column map) and Decode's
// consistency validation (in-range symbol references and action
// targets) but is otherwise unconstrained — the round-trip property
// must hold for any module Decode accepts, not just ones a real
// specification produces.
type randModule struct{ m *tables.Module }

func (randModule) Generate(r *rand.Rand, size int) reflect.Value {
	g := &grammar.Grammar{}
	nsyms := 1 + r.Intn(20)
	for i := 0; i < nsyms; i++ {
		g.AddSymbol(fmt.Sprintf("sym%d", i), grammar.Kind(r.Intn(6)), r.Int63n(2001)-1000)
	}
	g.Name = fmt.Sprintf("rand%d.cogg", r.Intn(1000))
	g.Lambda = r.Intn(nsyms)

	arg := func() grammar.Arg {
		return grammar.Arg{
			IsRef: r.Intn(2) == 1,
			Sym:   r.Intn(nsyms),
			Tag:   r.Intn(5) - 1,
			Num:   int64(r.Uint64()),
		}
	}
	ref := func() grammar.Ref { return grammar.Ref{Sym: r.Intn(nsyms), Tag: r.Intn(4)} }
	for pn := 0; pn < r.Intn(8); pn++ {
		p := &grammar.Prod{Num: pn + 1, LHS: r.Intn(nsyms), LHSTag: r.Intn(5) - 1}
		for j := 0; j < r.Intn(5); j++ {
			p.RHS = append(p.RHS, r.Intn(nsyms))
			p.RHSTags = append(p.RHSTags, r.Intn(5)-1)
		}
		for j := 0; j < r.Intn(3); j++ {
			p.Uses = append(p.Uses, ref())
		}
		for j := 0; j < r.Intn(3); j++ {
			p.Needs = append(p.Needs, ref())
		}
		for j := 0; j < r.Intn(4); j++ {
			t := grammar.Template{Op: r.Intn(nsyms), Semantic: r.Intn(2) == 1}
			for k := 0; k < r.Intn(3); k++ {
				o := grammar.Operand{Base: arg()}
				for m := 0; m < r.Intn(3); m++ {
					o.Sub = append(o.Sub, arg())
				}
				t.Operands = append(t.Operands, o)
			}
			p.Templates = append(p.Templates, t)
		}
		g.Prods = append(g.Prods, p)
	}

	p := &tables.Packed{
		NumStates: 1 + r.Intn(8),
		NumCols:   1 + r.Intn(8),
	}
	for i := 0; i <= nsyms; i++ {
		p.ColOf = append(p.ColOf, int32(r.Intn(p.NumCols+1)-1)) // -1 marks no column
	}
	for i := 0; i < p.NumStates; i++ {
		p.Base = append(p.Base, int32(r.Intn(33)-16))
	}
	entries := r.Intn(33)
	for i := 0; i < entries; i++ {
		// Occupied slots must satisfy Decode's consistency validation:
		// shift targets are states, reduce targets are productions, and
		// the slot's displacement from its owner's base must be a real
		// lookahead column. Free slots (check 0) are never followed and
		// stay unconstrained.
		var owners []int32
		for s := 0; s < p.NumStates; s++ {
			if col := i - int(p.Base[s]); col >= 0 && col < p.NumCols {
				owners = append(owners, int32(s)+1)
			}
		}
		check := int32(0)
		if len(owners) > 0 && r.Intn(p.NumStates+1) != 0 {
			check = owners[r.Intn(len(owners))]
		}
		a := lr.MkAction(lr.Kind(r.Intn(4)), r.Intn(1<<14))
		if check != 0 {
			switch a.Kind() {
			case lr.Shift:
				a = lr.MkAction(lr.Shift, r.Intn(p.NumStates))
			case lr.Reduce:
				if len(g.Prods) == 0 {
					a = lr.MkAction(lr.Error, a.Target())
				} else {
					a = lr.MkAction(lr.Reduce, r.Intn(len(g.Prods)))
				}
			}
		}
		p.Data = append(p.Data, a)
		p.Check = append(p.Check, check)
	}
	return reflect.ValueOf(randModule{&tables.Module{Grammar: g, Packed: p}})
}

// TestRoundTripProperty is the encode→decode→encode property over
// generated modules: re-encoding a decoded module must reproduce the
// original byte stream exactly, and the decoded packed table must
// answer every (state, symbol) lookup identically to the original.
func TestRoundTripProperty(t *testing.T) {
	prop := func(rm randModule) bool {
		var first bytes.Buffer
		if _, err := tables.EncodeModule(&first, rm.m); err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		decoded, err := tables.Decode(first.Bytes())
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		var second bytes.Buffer
		if _, err := tables.EncodeModule(&second, decoded); err != nil {
			t.Logf("re-encode: %v", err)
			return false
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Logf("re-encoding is not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
			return false
		}
		for state := 0; state < rm.m.Packed.NumStates; state++ {
			for sym := 0; sym < len(rm.m.Packed.ColOf); sym++ {
				if decoded.Packed.Lookup(state, sym) != rm.m.Packed.Lookup(state, sym) {
					t.Logf("action (%d,%d) changed across the round trip", state, sym)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripAmdahl runs the same property over the real full-scale
// module, and additionally re-encodes through Encode's own path so the
// section sizes agree between the two passes.
func TestRoundTripAmdahl(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	var first bytes.Buffer
	sz1, err := cg.Encode(&first)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := tables.Decode(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	sz2, err := tables.EncodeModule(&second, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding the decoded amdahl470 module is not byte-identical (%d vs %d bytes)",
			first.Len(), second.Len())
	}
	if sz1.Symbols != sz2.Symbols || sz1.Templates != sz2.Templates ||
		sz1.Compressed != sz2.Compressed || sz1.Total != sz2.Total {
		t.Errorf("section sizes drifted across the round trip: %+v vs %+v", sz1, sz2)
	}
	for state := 0; state < cg.Packed.NumStates; state++ {
		for sym := 0; sym < len(cg.Packed.ColOf); sym++ {
			if got, want := decoded.Packed.Lookup(state, sym), cg.Packed.Lookup(state, sym); got != want {
				t.Fatalf("action (%d,%d): decoded %v, original %v", state, sym, got, want)
			}
		}
	}
}
