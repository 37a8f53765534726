package tables_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cogg/internal/core"
	"cogg/internal/lr"
	"cogg/internal/tables"
	"cogg/specs"
)

// buildFrom constructs tables from a spec source.
func buildFrom(t testing.TB, name, src string) *core.CodeGenerator {
	t.Helper()
	cg, err := core.Generate(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestPages(t *testing.T) {
	if tables.Pages(4096) != 1.0 {
		t.Errorf("Pages(4096) = %v", tables.Pages(4096))
	}
	if tables.Pages(2048) != 0.5 {
		t.Errorf("Pages(2048) = %v", tables.Pages(2048))
	}
}

// TestPackEquivalenceMinimal: the packed table answers identically to
// the dense one for the minimal grammar (the full grammar is covered in
// package core's tests).
func TestPackEquivalenceMinimal(t *testing.T) {
	cg := buildFrom(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	p := tables.Pack(cg.Table)
	for state := 0; state < cg.Table.NumStates; state++ {
		for sym := 0; sym < len(cg.Table.ColOf); sym++ {
			if got, want := p.Lookup(state, sym), cg.Table.Lookup(state, sym); got != want {
				t.Fatalf("(%d,%d): packed %v, dense %v", state, sym, got, want)
			}
		}
	}
}

// TestPackOutOfRange: lookups outside any comb row return Error rather
// than a neighbour's action.
func TestPackOutOfRange(t *testing.T) {
	cg := buildFrom(t, "risc32.cogg", specs.Risc32)
	p := tables.Pack(cg.Table)
	// A state with an empty row: find one and probe every symbol.
	for state := 0; state < p.NumStates; state++ {
		for sym := 0; sym < len(p.ColOf); sym++ {
			if p.ColOf[sym] < 0 {
				if got := p.Lookup(state, sym); got.Kind() != lr.Error {
					t.Fatalf("columnless symbol %d returned %v", sym, got)
				}
			}
		}
	}
}

// TestQuickPackedRandomProbes: random probes against the dense table.
func TestQuickPackedRandomProbes(t *testing.T) {
	cg := buildFrom(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	p := tables.Pack(cg.Table)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			state := r.Intn(p.NumStates)
			sym := r.Intn(len(p.ColOf))
			if p.Lookup(state, sym) != cg.Table.Lookup(state, sym) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressedSmallerThanDense(t *testing.T) {
	for _, s := range []struct{ name, src string }{
		{"amdahl470.cogg", specs.Amdahl470},
		{"amdahl-minimal.cogg", specs.AmdahlMinimal},
		{"risc32.cogg", specs.Risc32},
	} {
		cg := buildFrom(t, s.name, s.src)
		p := tables.Pack(cg.Table)
		if p.SizeBytes() >= tables.UncompressedSizeBytes(cg.Table) {
			t.Errorf("%s: compressed %d >= dense %d", s.name,
				p.SizeBytes(), tables.UncompressedSizeBytes(cg.Table))
		}
	}
}

func TestEncodeSizesMatchStream(t *testing.T) {
	cg := buildFrom(t, "risc32.cogg", specs.Risc32)
	var buf bytes.Buffer
	sz, err := cg.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Total != buf.Len() {
		t.Errorf("Total %d != stream %d", sz.Total, buf.Len())
	}
	if got := 8 + sz.Symbols + sz.Templates + sz.Compressed; got != buf.Len() {
		t.Errorf("section sizes %d do not add up to %d", got, buf.Len())
	}
}

// TestEncodeModuleAllocatesOnce: the stream is appended into one buffer
// sized up front, so a section whose size is mispredicted shows as a
// second allocation.
func TestEncodeModuleAllocatesOnce(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	m := &tables.Module{Grammar: cg.Grammar, Packed: cg.Packed}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tables.EncodeModule(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("EncodeModule allocates %.0f times per run, want 1", allocs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := tables.Decode([]byte("not a table module")); err == nil {
		t.Error("Decode accepted garbage")
	}
	// Truncation after the magic.
	cg := buildFrom(t, "risc32.cogg", specs.Risc32)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{9, 20, buf.Len() / 2, buf.Len() - 1} {
		if _, err := tables.Decode(buf.Bytes()[:cut]); err == nil {
			t.Errorf("Decode accepted a module truncated to %d bytes", cut)
		}
	}
}

func TestDecodedModuleDrivesSameActions(t *testing.T) {
	cg := buildFrom(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	mod, err := tables.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for state := 0; state < cg.Packed.NumStates; state += 3 {
		for sym := 0; sym < len(cg.Packed.ColOf); sym++ {
			if got, want := mod.Packed.Lookup(state, sym), cg.Packed.Lookup(state, sym); got != want {
				t.Fatalf("(%d,%d): decoded %v, original %v", state, sym, got, want)
			}
		}
	}
	// Grammar round trip: production templates preserved.
	for i, p := range cg.Grammar.Prods {
		q := mod.Grammar.Prods[i]
		if len(p.Templates) != len(q.Templates) || len(p.RHS) != len(q.RHS) ||
			len(p.Uses) != len(q.Uses) || len(p.Needs) != len(q.Needs) {
			t.Fatalf("production %d shape changed across encode/decode", p.Num)
		}
	}
}

// TestDedupEquivalence: the row-merged table answers identically.
func TestDedupEquivalence(t *testing.T) {
	for _, s := range []struct{ name, src string }{
		{"amdahl470.cogg", specs.Amdahl470},
		{"amdahl-minimal.cogg", specs.AmdahlMinimal},
	} {
		cg := buildFrom(t, s.name, s.src)
		d := tables.PackDedup(cg.Table)
		for state := 0; state < cg.Table.NumStates; state++ {
			for sym := 0; sym < len(cg.Table.ColOf); sym++ {
				if got, want := d.Lookup(state, sym), cg.Table.Lookup(state, sym); got != want {
					t.Fatalf("%s (%d,%d): dedup %v, dense %v", s.name, state, sym, got, want)
				}
			}
		}
		// The documented negative result: LR action rows carry
		// state-specific shift targets, so nothing merges.
		if d.UniqueRows() != cg.Table.NumStates {
			t.Logf("%s: %d unique rows of %d states", s.name, d.UniqueRows(), cg.Table.NumStates)
		}
	}
}

// TestDecodeRejectsOutOfUniverseLookahead is the corrupted-module
// regression for the packed-table displacement check: a significant
// action entry whose offset from its owning state's base falls outside
// [0, NumCols) claims a lookahead symbol beyond the declared symbol
// universe, and Decode must refuse the module rather than let the
// parse loop follow it.
func TestDecodeRejectsOutOfUniverseLookahead(t *testing.T) {
	cg := buildFrom(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	pristine, err := tables.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Find a significant entry and push its owner's base past it, so the
	// entry's displacement goes negative; then pull the base back until
	// the displacement lands at NumCols, just over the high edge.
	target := -1
	for i, c := range pristine.Packed.Check {
		if c != 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("module has no significant entries")
	}
	owner := pristine.Packed.Check[target] - 1
	for _, bad := range []int32{int32(target) + 1, int32(target - pristine.Packed.NumCols)} {
		corrupt, err := tables.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		corrupt.Packed.Base[owner] = bad
		var reenc bytes.Buffer
		if _, err := tables.EncodeModule(&reenc, corrupt); err != nil {
			t.Fatal(err)
		}
		if _, err := tables.Decode(reenc.Bytes()); err == nil {
			t.Errorf("Decode accepted a module whose state %d base %d puts entry %d outside the symbol universe",
				owner, bad, target)
		} else if !strings.Contains(err.Error(), "lookahead column") {
			t.Errorf("base %d: error %q does not name the lookahead column", bad, err)
		}
	}
}

// TestDecodeRejectsEveryPrefix: no truncation of the full amdahl470
// module decodes. Each prefix costs a walk up to its cut, so the ~200k
// of them are striped over GOMAXPROCS goroutines.
func TestDecodeRejectsEveryPrefix(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for cut := first; cut < len(data); cut += workers {
				if _, err := tables.Decode(data[:cut]); err == nil {
					t.Errorf("Decode accepted the module truncated to %d of %d bytes", cut, len(data))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDecodeCountOverrunAllocatesNothing: a count within its limit that
// claims more entries than the bytes left fails before Decode sizes
// anything by it — here 2^20 symbols or productions, or 2^24 entries
// in one packed array, with ten bytes left.
func TestDecodeCountOverrunAllocatesNothing(t *testing.T) {
	cg := buildFrom(t, "amdahl-minimal.cogg", specs.AmdahlMinimal)
	var buf bytes.Buffer
	sz, err := cg.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := cg.Packed
	packed := 8 + sz.Symbols + sz.Templates
	colOf := packed + 8
	base := colOf + 4 + 2*len(p.ColOf)
	data := base + 4 + 4*len(p.Base)
	check := data + 4 + 2*len(p.Data)
	for _, c := range []struct {
		name   string
		offset int
		count  uint32
	}{
		{"symbols", 8 + 4 + len(cg.Grammar.Name) + 4, 1 << 20},
		{"productions", 8 + sz.Symbols, 1 << 20},
		{"ColOf", colOf, 1 << 24},
		{"Base", base, 1 << 24},
		{"Data", data, 1 << 24},
		{"Check", check, 1 << 24},
	} {
		stream := append([]byte(nil), buf.Bytes()[:c.offset+4+10]...)
		binary.LittleEndian.PutUint32(stream[c.offset:], c.count)
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			_, err = tables.Decode(stream)
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bytes left") {
			t.Errorf("%s count %d with ten bytes left: error %v, want a count overrun", c.name, c.count, err)
		}
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1024 {
			t.Errorf("%s count %d with ten bytes left: Decode allocated %d bytes before failing", c.name, c.count, perRun)
		}
	}
}
