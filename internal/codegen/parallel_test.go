package codegen_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"cogg/internal/asm"
	"cogg/internal/codegen"
	"cogg/internal/core"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/rt370"
	"cogg/internal/tables"
	"cogg/specs"
)

var errNoReductions = errors.New("translation recorded no reductions")

// parallelStreams are distinct IF programs of different shapes — loads,
// arithmetic with memory operands, register pressure, comparisons —
// so concurrent runs exercise different productions and register
// allocation decisions against the shared tables.
var parallelStreams = []string{
	"assign fullword dsp.96 r.13 iadd fullword dsp.100 r.13 imult fullword dsp.104 r.13 fullword dsp.108 r.13",
	"assign fullword dsp.96 r.13 iadd fullword dsp.96 r.13 fullword dsp.100 r.13",
	"assign fullword dsp.112 r.13 isub imult fullword dsp.96 r.13 fullword dsp.100 r.13 iadd fullword dsp.104 r.13 fullword dsp.108 r.13",
	"assign fullword dsp.96 r.13 idiv fullword dsp.100 r.13 fullword dsp.104 r.13",
	"assign fullword dsp.120 r.13 iadd iadd iadd fullword dsp.96 r.13 fullword dsp.100 r.13 fullword dsp.104 r.13 fullword dsp.108 r.13",
	"assign fullword dsp.96 r.13 imod fullword dsp.100 r.13 fullword dsp.104 r.13",
	"assign fullword dsp.96 r.13 ineg fullword dsp.100 r.13",
	"assign fullword dsp.96 r.13 imult iadd fullword dsp.100 r.13 fullword dsp.104 r.13 isub fullword dsp.108 r.13 fullword dsp.112 r.13",
}

// sharedDecodedGenerator builds the amdahl470 tables once, serializes
// them, and reconstitutes ONE generator from the decoded module — the
// exact object the batch service hands to all of its workers.
func sharedDecodedGenerator(t *testing.T) *codegen.Generator {
	t.Helper()
	cg, err := core.Generate("amdahl470.cogg", specs.Amdahl470)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	mod, err := tables.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(mod, rt370.Config())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// listingOf generates and lays out one stream, returning the rendered
// listing (layout resolves label addresses, so listings are comparable
// byte for byte).
func listingOf(t *testing.T, g *codegen.Generator, stream string) string {
	t.Helper()
	toks, err := ir.ParseTokens(stream)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := g.Generate("PAR", toks)
	if err != nil {
		t.Fatalf("Generate(%q): %v", stream, err)
	}
	cfg := rt370.Config()
	if err := labels.Layout(prog, cfg.Machine); err != nil {
		t.Fatal(err)
	}
	return asm.Listing(prog, cfg.Machine)
}

// TestSharedGeneratorRace: one generator built from one decoded table
// module serves many goroutines translating distinct IF streams. Every
// concurrent translation must emit exactly the listing the same
// generator produced serially — any cross-talk through shared state
// (tables, class maps, or accidental per-run leakage) shows up as a
// diff here, and as a data race under go test -race.
func TestSharedGeneratorRace(t *testing.T) {
	g := sharedDecodedGenerator(t)

	want := make([]string, len(parallelStreams))
	for i, s := range parallelStreams {
		want[i] = listingOf(t, g, s)
	}
	for i, a := range want {
		for j, b := range want[i+1:] {
			if a == b {
				t.Fatalf("streams %d and %d produce identical listings; the race check would be vacuous", i, i+1+j)
			}
		}
	}

	const goroutines = 24
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	mismatch := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Each goroutine walks the streams from a different
				// starting point so different streams overlap in time.
				n := (w + i) % len(parallelStreams)
				toks, err := ir.ParseTokens(parallelStreams[n])
				if err != nil {
					errs <- err
					return
				}
				prog, res, err := g.Generate("PAR", toks)
				if err != nil {
					errs <- err
					return
				}
				if res.Reductions == 0 {
					errs <- errNoReductions
					return
				}
				cfg := rt370.Config()
				if err := labels.Layout(prog, cfg.Machine); err != nil {
					errs <- err
					return
				}
				if got := asm.Listing(prog, cfg.Machine); got != want[n] {
					mismatch <- got + "\n--- want ---\n" + want[n]
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	close(mismatch)
	for err := range errs {
		t.Fatal(err)
	}
	for m := range mismatch {
		t.Fatalf("concurrent translation diverged from serial baseline:\n%s", m)
	}
}
