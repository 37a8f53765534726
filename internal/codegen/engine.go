package codegen

import (
	"context"

	"cogg/internal/asm"
	"cogg/internal/ir"
)

// EngineSession is the translation surface of a reusable Session, which
// a Generator (a fresh session per call) also satisfies.
// batch.Translate, driver.Target.CompileWith and the serving
// benchmark's layer replayer (perfbench) take it.
type EngineSession interface {
	Generate(name string, toks []ir.Token) (*asm.Program, *Result, error)
	GenerateCtx(ctx context.Context, name string, toks []ir.Token) (*asm.Program, *Result, error)
}

// NewEngineSession is NewSession behind the EngineSession interface,
// for perfbench.
func (g *Generator) NewEngineSession() (EngineSession, error) { return g.NewSession() }
