package codegen

import (
	"context"

	"cogg/internal/asm"
	"cogg/internal/ir"
)

// EngineSession is the translation surface of a reusable Session. The
// serving benchmark's layer replayer (perfbench) is its caller.
type EngineSession interface {
	Generate(name string, toks []ir.Token) (*asm.Program, *Result, error)
	GenerateCtx(ctx context.Context, name string, toks []ir.Token) (*asm.Program, *Result, error)
}

// NewEngineSession is NewSession behind the EngineSession interface,
// for the same caller.
func (g *Generator) NewEngineSession() (EngineSession, error) { return g.NewSession() }
