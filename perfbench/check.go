package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"cogg/internal/asm"
	"cogg/internal/driver"
	"cogg/internal/ifopt"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/pascal"
	"cogg/internal/server"
	"cogg/internal/shaper"
)

// simSteps bounds one simulated run; the generated programs finish far
// below it.
const simSteps = 5_000_000

// shapeOptions are the shaper options the daemon applies to a Pascal
// request: statement records on (its default), the IF optimizer when
// the request asks for it.
func shapeOptions(cse bool) shaper.Options {
	opt := shaper.Options{StatementRecords: true}
	if cse {
		opt.CSE = ifopt.New().Apply
	}
	return opt
}

// reference is what the library path produces for one input.
type reference struct {
	listing   string
	deck      string // base64 card images, Pascal only
	codeBytes int
}

// libraryIF translates one IF program the way a client linking the
// generator would: a fresh codegen.Session, label layout, listing.
func (lib *library) libraryIF(in input) (reference, error) {
	toks, err := ir.ParseTokens(in.source)
	if err != nil {
		return reference{}, err
	}
	ses, err := lib.tgt.Gen.NewSession()
	if err != nil {
		return reference{}, err
	}
	prog, _, err := ses.Generate(in.name, toks)
	if err != nil {
		return reference{}, err
	}
	if err := labels.Layout(prog, lib.tgt.Machine); err != nil {
		return reference{}, err
	}
	return reference{listing: asm.Listing(prog, lib.tgt.Machine), codeBytes: prog.CodeSize}, nil
}

// libraryPascal compiles one Pascal program through driver.Target and
// renders its deck, returning the compiled program for the execution
// check.
func (lib *library) libraryPascal(in input) (reference, *driver.Compiled, error) {
	c, err := lib.tgt.Compile(in.name, in.source, shapeOptions(in.cse))
	if err != nil {
		return reference{}, nil, err
	}
	var b strings.Builder
	if err := c.Deck.WriteCards(&b); err != nil {
		return reference{}, nil, err
	}
	return reference{
		listing:   c.Listing(),
		deck:      base64.StdEncoding.EncodeToString([]byte(b.String())),
		codeBytes: c.Prog.CodeSize,
	}, c, nil
}

// compareServed checks a served answer byte for byte against the
// library path's.
func compareServed(resp server.CompileResponse, ref reference) error {
	if resp.Listing != ref.listing {
		return fmt.Errorf("listing differs from the library path at line %d", firstDiffLine(resp.Listing, ref.listing))
	}
	if resp.Deck != ref.deck {
		return fmt.Errorf("deck differs from the library path (%d vs %d base64 bytes)", len(resp.Deck), len(ref.deck))
	}
	if resp.CodeBytes != ref.codeBytes {
		return fmt.Errorf("code_bytes %d, library path %d", resp.CodeBytes, ref.codeBytes)
	}
	return nil
}

func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// executionCheck runs the table-driven compile on the S/370 simulator
// and compares its final main-program variables and output with the
// independent hand-written generator's.
func executionCheck(in input, c *driver.Compiled, m asm.Machine) error {
	prog, err := pascal.Parse(in.name, in.source)
	if err != nil {
		return err
	}
	shaped, err := shaper.Shape(prog, shaper.Options{})
	if err != nil {
		return err
	}
	hw, err := driver.CompileHandwritten(shaped, m)
	if err != nil {
		return fmt.Errorf("hand-written compile: %w", err)
	}
	got, err := c.Run(nil, simSteps)
	if err != nil {
		return fmt.Errorf("table-driven run: %w", err)
	}
	want, err := hw.Run(nil, simSteps)
	if err != nil {
		return fmt.Errorf("hand-written run: %w", err)
	}
	for _, v := range prog.Main.Locals {
		ga, _ := c.VarAddr(v.Name)
		wa, _ := hw.VarAddr(v.Name)
		for off := uint32(0); off < uint32(v.Type.Size()); off++ {
			gb, _ := got.Byte(ga + off)
			wb, _ := want.Byte(wa + off)
			if gb != wb {
				return fmt.Errorf("variable %s differs from the hand-written generator's at byte %d", v.Name, off)
			}
		}
	}
	if g, w := driver.Output(got), driver.Output(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("output %v, hand-written generator %v", g, w)
	}
	return nil
}

// checkResult is the outcome of the output check.
type checkResult struct {
	checked   int // distinct inputs checked
	failures  []string
	codeBytes int // summed over the distinct inputs, library path
}

// checkOutputs checks the first served answer of every distinct input
// against the library path and, for Pascal, runs the execution check.
// Raw IF has no independent reference generator, so IF answers are
// checked against the library path only.
func (lib *library) checkOutputs(inputs []input, ans *answers) checkResult {
	var cr checkResult
	fail := func(in input, err error) {
		cr.failures = append(cr.failures, fmt.Sprintf("%s: %v", in.name, err))
	}
	for _, idx := range ans.firstSeen {
		in := inputs[idx]
		cr.checked++
		var resp server.CompileResponse
		if err := json.Unmarshal(ans.first[idx], &resp); err != nil {
			fail(in, fmt.Errorf("served body: %w", err))
			continue
		}
		var ref reference
		var c *driver.Compiled
		var err error
		if in.lang == "if" {
			ref, err = lib.libraryIF(in)
		} else {
			ref, c, err = lib.libraryPascal(in)
		}
		if err != nil {
			fail(in, fmt.Errorf("library path: %w", err))
			continue
		}
		cr.codeBytes += ref.codeBytes
		if err := compareServed(resp, ref); err != nil {
			fail(in, err)
			continue
		}
		if c != nil {
			if err := executionCheck(in, c, lib.tgt.Machine); err != nil {
				fail(in, err)
			}
		}
	}
	return cr
}
