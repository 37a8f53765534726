package oracle

import "cogg/specs"

// DefaultPriming returns the statement-aligned priming prefix for a
// shipped specification, named as specs.Lookup accepts, as IF text
// (ir.ParseTokens accepts it): full statements that define one common
// subexpression per register class the specification's use-common
// productions draw from, storing raw base registers so the allocator
// never has to spill them. Unknown names return "" — witness generation
// then runs unprimed, and derivations through common-subexpression uses
// fail verification instead of being patched to a live definition.
func DefaultPriming(specName string) string {
	sp, err := specs.Lookup(specName)
	switch {
	case err != nil:
		return ""
	case sp.Risc:
		return "assign fullword dsp.96 r.13 make_common cse.1 cnt.3 fullword dsp.104 r.13 r.10"
	}
	return "assign fullword dsp.96 r.13 make_common cse.1 cnt.3 fullword dsp.104 r.13 r.10 " +
		"assign dblrealword dsp.112 r.13 make_common cse.2 cnt.3 dblrealword dsp.120 r.13 dblrealword dsp.128 r.13"
}
