package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesProfiles: the stop function leaves a non-empty CPU
// profile and a non-empty allocation profile behind.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestStartWithoutFiles: no profile requested, nothing to stop.
func TestStartWithoutFiles(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseRunsItsFunction(t *testing.T) {
	ran := false
	Phase("codegen", func() { ran = true })
	if !ran {
		t.Fatal("Phase did not run its function")
	}
}
