package core_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cogg/specs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestAmdahlSectionSizesGolden pins the serialized section sizes of the
// full Amdahl 470 table module — the raw material of the paper's
// Table 2 — and the SHA-256 of the encoded module to a golden file. Any
// change to the grammar, the table construction, the comb packing, or
// the encoding shows up here as an explicit diff to review (and to
// re-bless with -update), never as silent drift. The digest catches
// what the sizes cannot: a placement that moves comb entries but keeps
// the comb's length.
func TestAmdahlSectionSizesGolden(t *testing.T) {
	cg := generate(t, "amdahl470.cogg", specs.Amdahl470)
	var buf bytes.Buffer
	sz, err := cg.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf(
		"amdahl470.cogg table module section sizes (bytes)\nsymbols      %d\ntemplates    %d\ncompressed   %d\nuncompressed %d\ntotal        %d\nsha256       %x\n",
		sz.Symbols, sz.Templates, sz.Compressed, sz.Uncompressed, sz.Total, sha256.Sum256(buf.Bytes()))

	golden := filepath.Join("testdata", "amdahl470_sizes.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("section sizes drifted from the golden file.\n--- got ---\n%s--- want ---\n%s(re-bless with: go test ./internal/core -run TestAmdahlSectionSizesGolden -update)",
			got, want)
	}
}
