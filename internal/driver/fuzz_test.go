package driver_test

import (
	"reflect"
	"testing"

	"cogg/internal/driver"
	"cogg/internal/pascal"
	"cogg/internal/pascal/pascaltest"
	"cogg/internal/shaper"
)

// TestFuzzDifferential generates random programs and requires the three
// backends to agree on every variable byte.
var fuzzSeeds = 40

func TestFuzzDifferential(t *testing.T) {
	seeds := fuzzSeeds
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := pascaltest.Program(seed)
		prog, err := pascal.Parse("fuzz.pas", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}

		type backend struct {
			name    string
			compile func() (*driver.Compiled, error)
		}
		backends := []backend{
			{"full", func() (*driver.Compiled, error) {
				return target(t).Compile("fuzz.pas", src, shaper.Options{})
			}},
			{"minimal", func() (*driver.Compiled, error) {
				return minimalTarget(t).Compile("fuzz.pas", src, shaper.Options{})
			}},
			{"handwritten", func() (*driver.Compiled, error) {
				p2, err := pascal.Parse("fuzz.pas", src)
				if err != nil {
					return nil, err
				}
				s2, err := shaper.Shape(p2, shaper.Options{})
				if err != nil {
					return nil, err
				}
				return driver.CompileHandwritten(s2, target(t).Machine)
			}},
			{"full+cse", func() (*driver.Compiled, error) {
				return target(t).Compile("fuzz.pas", src, cseOptions())
			}},
		}

		type result struct {
			name string
			mem  map[string][]byte
			out  []int32
		}
		var results []result
		for _, b := range backends {
			c, err := b.compile()
			if err != nil {
				t.Fatalf("seed %d: %s compile: %v\n%s", seed, b.name, err, src)
			}
			cpu, err := c.Run(nil, 5_000_000)
			if err != nil {
				t.Fatalf("seed %d: %s run: %v\n%s\n%s", seed, b.name, err, src, c.Listing())
			}
			mem := map[string][]byte{}
			for _, v := range prog.Main.Locals {
				addr, _ := c.VarAddr(v.Name)
				buf := make([]byte, v.Type.Size())
				for off := range buf {
					buf[off], _ = cpu.Byte(addr + uint32(off))
				}
				mem[v.Name] = buf
			}
			results = append(results, result{b.name, mem, driver.Output(cpu)})
		}
		base := results[0]
		for _, r := range results[1:] {
			for name, want := range base.mem {
				got := r.mem[name]
				if string(got) != string(want) {
					t.Fatalf("seed %d: %s and %s disagree on %s: % x vs % x\n%s",
						seed, base.name, r.name, name, want, got, src)
				}
			}
			if !reflect.DeepEqual(base.out, r.out) {
				t.Fatalf("seed %d: %s and %s disagree on output: %v vs %v\n%s",
					seed, base.name, r.name, base.out, r.out, src)
			}
		}
	}
}
