// Package specs embeds the code generator specifications shipped with the
// repository: the full Amdahl 470 SDTS (the paper's Appendix 2), a
// minimal variant with one production per operator (the paper's
// "microcomputer" size-control scenario), and a small RISC target
// demonstrating retargetability.
//
// It is also the one place a specification name is resolved: Lookup
// holds the list of embedded names and aliases every command, the
// daemon, and the grammar oracle accept, and Load adds .cogg file paths
// for the commands.
package specs

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Amdahl470 is the full-scale S/370 specification: every addressing-mode
// variant, even/odd pair idioms, bitset operations, floating point, and
// common subexpression handling.
//
//go:embed amdahl470.cogg
var Amdahl470 string

// AmdahlMinimal is the reduced specification: a single production per IF
// operator, enough to generate correct (but naive) code with far smaller
// tables. "A language implementer can therefore control the size of the
// compiler by changing the complexity of the grammar" (paper section 6).
//
//go:embed amdahl-minimal.cogg
var AmdahlMinimal string

// Risc32 targets a simple load/store machine and demonstrates that
// retargeting requires only rewriting the templates.
//
//go:embed risc32.cogg
var Risc32 string

// Spec is one resolved specification.
type Spec struct {
	// Name is the file name the specification is known by. It is part
	// of the table-module cache key (batch.Key), so every tool must
	// derive the same name for the same specification.
	Name string
	Src  string
	// Risc reports that the specification targets the risc32 machine
	// and needs its target configuration (driver.RiscConfig) instead of
	// the S/370 one.
	Risc bool
}

// Lookup resolves an embedded specification by name: "amdahl470",
// "amdahl-minimal" (alias "minimal") or "risc32", each with or without
// the ".cogg" suffix. It never reads a file, so network-facing callers
// can pass it untrusted names.
func Lookup(name string) (Spec, error) {
	switch strings.TrimSuffix(name, ".cogg") {
	case "amdahl470":
		return Spec{Name: "amdahl470.cogg", Src: Amdahl470}, nil
	case "amdahl-minimal", "minimal":
		return Spec{Name: "amdahl-minimal.cogg", Src: AmdahlMinimal}, nil
	case "risc32":
		return Spec{Name: "risc32.cogg", Src: Risc32, Risc: true}, nil
	}
	return Spec{}, fmt.Errorf("unknown spec %q (embedded specs: %s)", name, names)
}

// names is Lookup's list for error messages.
const names = "amdahl470, amdahl-minimal, risc32"

// Load resolves a command-line specification argument: an embedded name
// (see Lookup), else a .cogg file read from disk and named by its base
// name, so `cogg -cache D specs/amdahl470.cogg` publishes the same cache
// key the embedded "amdahl470" resolves to.
func Load(arg string) (Spec, error) {
	if s, err := Lookup(arg); err == nil {
		return s, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return Spec{}, fmt.Errorf("spec %q is neither an embedded name (%s) nor a readable file: %w", arg, names, err)
	}
	return Spec{Name: filepath.Base(arg), Src: string(b)}, nil
}
