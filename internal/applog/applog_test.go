package applog

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTextPassesThrough: text mode (and the empty default) is plain
// log.Printf, with no structured logger behind it.
func TestTextPassesThrough(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	flags := log.Flags()
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(flags)
	})
	for _, format := range []string{"", "text"} {
		buf.Reset()
		l, err := New(format, "cogd")
		if err != nil {
			t.Fatal(err)
		}
		l.Printf("cogd: serving %s on %s", "amdahl470.cogg", ":8470")
		if got, want := buf.String(), "cogd: serving amdahl470.cogg on :8470\n"; got != want {
			t.Errorf("format %q: logged %q, want %q", format, got, want)
		}
		if l.Slog() != nil {
			t.Errorf("format %q: text mode exposes a structured logger", format)
		}
	}
}

// TestJSONCarriesComponent: json mode writes one JSON object per line
// to standard error, tagged with the component.
func TestJSONCarriesComponent(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = f
	l, err := New("json", "cogdfront")
	os.Stderr = stderr
	if err != nil {
		t.Fatal(err)
	}
	l.Printf("cogdfront: serving %d replicas", 3)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("wrote %d lines, want 1:\n%s", len(lines), out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("not a JSON object: %q: %v", lines[0], err)
	}
	if rec["component"] != "cogdfront" || rec["msg"] != "cogdfront: serving 3 replicas" {
		t.Errorf("record %v, want component cogdfront and the formatted message", rec)
	}
	if l.Slog() == nil {
		t.Error("json mode exposes no structured logger")
	}
}

func TestUnknownFormat(t *testing.T) {
	if _, err := New("xml", "cogd"); err == nil {
		t.Fatal(`New("xml") succeeded, want an error`)
	}
}
