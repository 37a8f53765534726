// Package emitgo_test holds the engine-differential fuzz target. The
// emitted engine this package once generated was retired (DESIGN §15);
// the target now pits the two ways the one interpreted engine is driven
// against each other: a fresh translation per input, and one long-lived
// engine session as the daemon's session pool holds it.
package emitgo_test

import (
	"fmt"
	"slices"
	"testing"

	"cogg/internal/asm"
	"cogg/internal/codegen"
	"cogg/internal/driver"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/oracle"
	"cogg/specs"
)

// translation is one rendered outcome: the laid-out listing and the
// production counts, or the error that stopped the translation.
type translation struct {
	listing string
	counts  []int
	err     error
}

func render(m asm.Machine, prog *asm.Program, res *codegen.Result, err error) translation {
	if err != nil {
		return translation{err: err}
	}
	if err := labels.Layout(prog, m); err != nil {
		return translation{err: err}
	}
	return translation{listing: asm.Listing(prog, m), counts: slices.Clone(res.ProdCounts)}
}

// sameTranslation reports whether two outcomes match: byte-identical
// listings and production counts, or errors of the same concrete type
// with the same message (which for a BlockedError covers every
// collected blocked-parse diagnostic).
func sameTranslation(a, b translation) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return fmt.Sprintf("%T", a.err) == fmt.Sprintf("%T", b.err) && a.err.Error() == b.err.Error()
	}
	return a.listing == b.listing && slices.Equal(a.counts, b.counts)
}

// FuzzEngineDifferential is the engine-equivalence fuzz target: any IF
// stream — well-formed, truncated, or garbage — must produce either
// byte-identical listings and production counts or identical structured
// errors from a fresh translation (Generator.Generate) and from one
// long-lived engine session, whatever that session translated before.
// The seeds are ifsynth-generated program bodies plus handcrafted
// malformed shapes, so mutation starts from inputs that reach deep into
// the grammar.
func FuzzEngineDifferential(f *testing.F) {
	tgt, err := driver.NewTarget("amdahl470.cogg", specs.Amdahl470)
	if err != nil {
		f.Fatal(err)
	}
	ses, err := tgt.Gen.NewEngineSession()
	if err != nil {
		f.Fatal(err)
	}

	// ifsynth seeds: oracle-generated well-formed bodies.
	prime, err := ir.ParseTokens(oracle.DefaultPriming("amdahl470.cogg"))
	if err != nil {
		f.Fatal(err)
	}
	c, err := oracle.Generate(oracle.New(tgt.Mod), 42, 16, oracle.CorpusOptions{
		Walk: oracle.WalkConfig{Priming: prime},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, toks := range c.Programs {
		f.Add(ir.FormatTokens(toks))
	}
	// Malformed shapes that exercise blocked-parse recovery.
	f.Add("assign fullword dsp.100")
	f.Add("iadd iadd iadd r.1 r.2")
	f.Add("dsp.100 r.13 assign fullword")
	f.Add("halfword imul r.1 r.2")
	f.Add("cse fullword dsp.100 r.13")

	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<13 {
			return // bound per-input work; long streams add no new shapes
		}
		toks, err := ir.ParseTokens(text)
		if err != nil {
			return
		}
		prog, res, err := tgt.Gen.Generate("fuzz", toks)
		fresh := render(tgt.Machine, prog, res, err)
		prog, res, err = ses.Generate("fuzz", toks)
		reused := render(tgt.Machine, prog, res, err)
		if !sameTranslation(fresh, reused) {
			t.Fatalf("reused engine session diverged from a fresh translation on %q:\nfresh:  %v\n%s\nreused: %v\n%s",
				text, fresh.err, fresh.listing, reused.err, reused.listing)
		}
	})
}
