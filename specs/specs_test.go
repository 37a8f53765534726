package specs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cogg/internal/spec"
	"cogg/specs"
)

// TestEmbeddedSpecsParse: every shipped specification parses and has the
// expected scale.
func TestEmbeddedSpecsParse(t *testing.T) {
	cases := []struct {
		name, src string
		minProds  int
	}{
		{"amdahl470.cogg", specs.Amdahl470, 150},
		{"amdahl-minimal.cogg", specs.AmdahlMinimal, 50},
		{"risc32.cogg", specs.Risc32, 30},
	}
	for _, c := range cases {
		f, err := spec.Parse(c.name, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(f.Productions) < c.minProds {
			t.Errorf("%s: %d productions, want >= %d", c.name, len(f.Productions), c.minProds)
		}
	}
}

// TestFullSpecHasThirteenIAddForms: the paper's redundancy claim holds
// in the shipped grammar ("no less than thirteen productions associated
// with integer addition").
func TestFullSpecHasThirteenIAddForms(t *testing.T) {
	f, err := spec.Parse("amdahl470.cogg", specs.Amdahl470)
	if err != nil {
		t.Fatal(err)
	}
	iadd := 0
	for _, p := range f.Productions {
		for _, r := range p.RHS {
			if r.Name == "iadd" {
				iadd++
				break
			}
		}
	}
	if iadd < 13 {
		t.Errorf("iadd productions: %d, want >= 13", iadd)
	}
}

// TestSpecsShareTheIF: the minimal and full grammars declare the same
// operators, so the shaper's output parses under both.
func TestSpecsShareTheIF(t *testing.T) {
	full, err := spec.Parse("amdahl470.cogg", specs.Amdahl470)
	if err != nil {
		t.Fatal(err)
	}
	min, err := spec.Parse("amdahl-minimal.cogg", specs.AmdahlMinimal)
	if err != nil {
		t.Fatal(err)
	}
	fullOps := map[string]bool{}
	for _, d := range full.Operators {
		fullOps[d.Name] = true
	}
	for _, d := range min.Operators {
		if !fullOps[d.Name] {
			t.Errorf("minimal grammar declares operator %q absent from the full grammar", d.Name)
		}
	}
	if !strings.Contains(specs.Amdahl470, "push_odd") {
		t.Error("full spec lost the even/odd idioms")
	}
}

// TestLookupAndLoad: every embedded name and alias resolves to its
// canonical file name and source, Risc marks risc32 alone, a file path
// is named by its base name, unknown names fail, and Lookup never
// touches the file system.
func TestLookupAndLoad(t *testing.T) {
	dir := t.TempDir()
	custom := filepath.Join(dir, "custom.cogg")
	if err := os.WriteFile(custom, []byte("custom spec bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file shadowing an embedded name in the working directory: the
	// embedded spec must still win.
	if err := os.WriteFile(filepath.Join(dir, "amdahl470.cogg"), []byte("shadow"), 0o644); err != nil {
		t.Fatal(err)
	}
	shipped, err := filepath.Abs("amdahl470.cogg")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)

	full := specs.Spec{Name: "amdahl470.cogg", Src: specs.Amdahl470}
	min := specs.Spec{Name: "amdahl-minimal.cogg", Src: specs.AmdahlMinimal}
	risc := specs.Spec{Name: "risc32.cogg", Src: specs.Risc32, Risc: true}
	cases := []struct {
		arg      string
		want     specs.Spec
		lookupOK bool // false: Lookup must fail (Load may still succeed)
		loadOK   bool
	}{
		{"amdahl470", full, true, true},
		{"amdahl470.cogg", full, true, true},
		{"amdahl-minimal", min, true, true},
		{"amdahl-minimal.cogg", min, true, true},
		{"minimal", min, true, true},
		{"minimal.cogg", min, true, true},
		{"risc32", risc, true, true},
		{"risc32.cogg", risc, true, true},
		{custom, specs.Spec{Name: "custom.cogg", Src: "custom spec bytes"}, false, true},
		{shipped, full, false, true},
		{"custom.cogg", specs.Spec{Name: "custom.cogg", Src: "custom spec bytes"}, false, true},
		{"", specs.Spec{}, false, false},
		{"no-such-spec", specs.Spec{}, false, false},
		{"../etc/passwd", specs.Spec{}, false, false},
	}
	for _, c := range cases {
		got, err := specs.Lookup(c.arg)
		switch {
		case c.lookupOK && (err != nil || got != c.want):
			t.Errorf("Lookup(%q) = %s, %v; want %s", c.arg, brief(got), err, brief(c.want))
		case !c.lookupOK && err == nil:
			t.Errorf("Lookup(%q) = %s, want an error (Lookup never reads files)", c.arg, brief(got))
		}
		got, err = specs.Load(c.arg)
		switch {
		case c.loadOK && (err != nil || got != c.want):
			t.Errorf("Load(%q) = %s, %v; want %s", c.arg, brief(got), err, brief(c.want))
		case !c.loadOK && err == nil:
			t.Errorf("Load(%q) = %s, want an error", c.arg, brief(got))
		}
	}
}

// brief prints a Spec without its (long) source.
func brief(s specs.Spec) string {
	return fmt.Sprintf("{%s %d bytes risc=%v}", s.Name, len(s.Src), s.Risc)
}
