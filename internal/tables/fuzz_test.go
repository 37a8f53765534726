package tables_test

import (
	"bytes"
	"testing"

	"cogg/internal/tables"
	"cogg/specs"
)

// FuzzTableDecode feeds mutated .cogtbl byte streams to the module
// decoder. Decode's contract is errors, never panics — a corrupt cache
// entry must degrade to regeneration, not take the process down — and
// any module it does accept must answer every (state, symbol) lookup
// without going out of bounds.
func FuzzTableDecode(f *testing.F) {
	cg := buildFrom(f, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:9])
	f.Add([]byte("CoGGtbl1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %d-byte input: %v", len(data), r)
			}
		}()
		mod, err := tables.Decode(data)
		if err != nil {
			return
		}
		// Accepted modules passed validation; prove the lookups it
		// guards really are in bounds.
		states := mod.Packed.NumStates
		if states > 64 {
			states = 64
		}
		for state := 0; state < states; state++ {
			for sym := 0; sym < len(mod.Packed.ColOf); sym++ {
				mod.Packed.Lookup(state, sym)
			}
		}
	})
}
