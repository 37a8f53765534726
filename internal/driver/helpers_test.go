package driver_test

import (
	"testing"

	"cogg/internal/ir"

	"cogg/internal/codegen"
	"cogg/internal/pascal"
	"cogg/internal/rt370"
	"cogg/internal/tables"
)

func decodeModule(data []byte) (*tables.Module, error) {
	return tables.Decode(data)
}

func newGenerator(mod *tables.Module) (*codegen.Generator, error) {
	return codegen.New(mod, rt370.Config())
}

func mustTokensD(t *testing.T, text string) []ir.Token {
	t.Helper()
	toks, err := ir.ParseTokens(text)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func parsePascal(t *testing.T, src string) (*pascal.Program, error) {
	t.Helper()
	p, err := pascal.Parse("t.pas", src)
	if err != nil {
		t.Fatal(err)
	}
	return p, err
}
