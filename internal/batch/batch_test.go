package batch_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cogg/internal/batch"
	"cogg/internal/driver"
	"cogg/internal/rt370"
	"cogg/internal/shaper"
	"cogg/specs"
)

const specName = "amdahl-minimal.cogg"

func minimalTarget(t *testing.T, s *batch.Service) *driver.Target {
	t.Helper()
	tgt, err := s.Target(specName, specs.AmdahlMinimal, rt370.Config())
	if err != nil {
		t.Fatalf("Target: %v", err)
	}
	return tgt
}

// cacheFiles lists the blob entries currently in a cache directory
// (quarantined entries and the index sidecar do not count).
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.blob"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCacheTiers drives the three tiers in order: a fresh service
// misses and builds, the same service hits memory, and a second service
// over the same directory hits disk without ever constructing tables.
func TestCacheTiers(t *testing.T) {
	dir := t.TempDir()

	s1 := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, s1)
	v := s1.Stats.Snapshot()
	if v.Misses != 1 || v.MemHits != 0 || v.DiskHits != 0 {
		t.Fatalf("cold load: misses=%d mem=%d disk=%d, want 1/0/0", v.Misses, v.MemHits, v.DiskHits)
	}
	if v.TableBuild <= 0 {
		t.Error("cold load recorded no table-build time")
	}
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Fatalf("disk cache holds %d entries after a miss, want 1", n)
	}

	minimalTarget(t, s1)
	if v := s1.Stats.Snapshot(); v.MemHits != 1 || v.Misses != 1 {
		t.Fatalf("second load: mem=%d misses=%d, want 1/1", v.MemHits, v.Misses)
	}

	s2 := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, s2)
	v = s2.Stats.Snapshot()
	if v.DiskHits != 1 || v.Misses != 0 {
		t.Fatalf("warm start: disk=%d misses=%d, want 1/0", v.DiskHits, v.Misses)
	}
	if v.TableBuild != 0 {
		t.Errorf("warm start spent %v building tables, want none", v.TableBuild)
	}
}

// TestFileSpecSharesEmbeddedKey: a module cached under the name
// specs.Load gives a file path (as `cogg -cache D specs/amdahl470.cogg`
// caches it) is a disk hit for a later service that resolves the
// embedded name "amdahl470".
func TestFileSpecSharesEmbeddedKey(t *testing.T) {
	dir := t.TempDir()
	file, err := specs.Load("../../specs/amdahl470.cogg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.New(batch.Options{CacheDir: dir}).Module(file.Name, file.Src); err != nil {
		t.Fatal(err)
	}
	embedded, err := specs.Lookup("amdahl470")
	if err != nil {
		t.Fatal(err)
	}
	s := batch.New(batch.Options{CacheDir: dir})
	if _, err := s.Module(embedded.Name, embedded.Src); err != nil {
		t.Fatal(err)
	}
	if v := s.Stats.Snapshot(); v.DiskHits != 1 || v.Misses != 0 {
		t.Fatalf("embedded name after file publish: disk=%d misses=%d, want 1/0", v.DiskHits, v.Misses)
	}
}

// TestWarmTargetCompilesIdentically proves the warm path is not a
// different compiler: a target decoded from the disk cache emits
// byte-for-byte the listing of one built from specification source.
func TestWarmTargetCompilesIdentically(t *testing.T) {
	const src = `
program warm;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 10 do s := s + i * i
end.
`
	cold, err := driver.NewTarget(specName, specs.AmdahlMinimal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	batch.New(batch.Options{CacheDir: dir}).Target(specName, specs.AmdahlMinimal, rt370.Config())
	warmSvc := batch.New(batch.Options{CacheDir: dir})
	warm := minimalTarget(t, warmSvc)
	if warmSvc.Stats.Snapshot().DiskHits != 1 {
		t.Fatal("warm service did not hit the disk cache")
	}

	cc, err := cold.Compile("warm.pas", src, shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := warm.Compile("warm.pas", src, shaper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Listing() != wc.Listing() {
		t.Errorf("warm-path listing differs from cold-path listing:\ncold:\n%s\nwarm:\n%s",
			cc.Listing(), wc.Listing())
	}
}

// TestCorruptDiskEntryRegenerates plants garbage at the cache path: the
// service must discard it, rebuild from source, and leave a valid entry
// behind.
func TestCorruptDiskEntryRegenerates(t *testing.T) {
	dir := t.TempDir()
	seed := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, seed)
	entries := cacheFiles(t, dir)
	if len(entries) != 1 {
		t.Fatalf("expected one cache entry, found %v", entries)
	}
	if err := os.WriteFile(entries[0], []byte("not a table module"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, s)
	v := s.Stats.Snapshot()
	if v.DiskBad != 1 || v.Misses != 1 || v.DiskHits != 0 {
		t.Fatalf("corrupt entry: bad=%d misses=%d disk=%d, want 1/1/0", v.DiskBad, v.Misses, v.DiskHits)
	}

	// The rewritten entry must decode again.
	s3 := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, s3)
	if v := s3.Stats.Snapshot(); v.DiskHits != 1 {
		t.Fatalf("regenerated entry not served from disk: %+v", v)
	}
}

// TestStaleMagicEntryRegenerates flips the module-format magic byte
// inside a valid blob entry — the shape of an on-disk module left
// behind by an older format version — and expects fallback to
// regeneration, not an error. Under the blob envelope the flip is
// caught even earlier than the decoder: the payload no longer hashes to
// its recorded content digest, so the entry is quarantined (set aside,
// not deleted) before tables.Decode ever sees it.
func TestStaleMagicEntryRegenerates(t *testing.T) {
	dir := t.TempDir()
	seed := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, seed)
	entry := cacheFiles(t, dir)[0]
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data[nl+1:], []byte("CoGGtbl")) {
		t.Fatalf("blob payload does not start with the format magic: %.20q", data)
	}
	data[nl+1+7]++ // bump the module version digit in place
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := batch.New(batch.Options{CacheDir: dir})
	tgt := minimalTarget(t, s)
	v := s.Stats.Snapshot()
	if v.DiskBad != 1 || v.Misses != 1 {
		t.Fatalf("stale magic: bad=%d misses=%d, want 1/1", v.DiskBad, v.Misses)
	}
	if tgt.Gen == nil {
		t.Fatal("regenerated target has no generator")
	}
	if q, err := filepath.Glob(filepath.Join(dir, "*.quarantine")); err != nil || len(q) != 1 {
		t.Errorf("corrupt entry was not quarantined: %v %v", q, err)
	}
}

// TestOneByteSpecEditMisses asserts the staleness contract of the cache
// key: editing a single byte of the specification (or renaming it)
// yields a different key, so a stale module can never be served.
func TestOneByteSpecEditMisses(t *testing.T) {
	base := batch.Key(specName, specs.AmdahlMinimal)
	edited := specs.AmdahlMinimal[:len(specs.AmdahlMinimal)-1] +
		string(specs.AmdahlMinimal[len(specs.AmdahlMinimal)-1]+1)
	if batch.Key(specName, edited) == base {
		t.Error("one-byte spec edit produced the same cache key")
	}
	if batch.Key("other.cogg", specs.AmdahlMinimal) == base {
		t.Error("renamed spec produced the same cache key")
	}
	// And the service must actually rebuild for the edited text: a
	// comment-only change still reruns the constructor (content hash,
	// not semantic hash — by design).
	dir := t.TempDir()
	s := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, s)
	if _, err := s.Module(specName, specs.AmdahlMinimal+"\n"); err != nil {
		t.Fatalf("edited spec: %v", err)
	}
	if v := s.Stats.Snapshot(); v.Misses != 2 {
		t.Fatalf("edited spec was served from cache (misses=%d, want 2)", v.Misses)
	}
	if n := len(cacheFiles(t, dir)); n != 2 {
		t.Fatalf("disk cache holds %d entries for 2 distinct specs", n)
	}
}

// TestModuleSingleflight: concurrent requests for one uncached spec
// share a single table construction.
func TestModuleSingleflight(t *testing.T) {
	s := batch.New(batch.Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Module(specName, specs.AmdahlMinimal); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	v := s.Stats.Snapshot()
	if v.Misses != 1 {
		t.Errorf("%d constructions for one spec, want 1", v.Misses)
	}
	if v.Misses+v.MemHits != 8 {
		t.Errorf("misses+memhits = %d, want 8", v.Misses+v.MemHits)
	}
}

// TestCompileBatchDeterministicOrder compiles a mixed batch (including
// a unit that fails to parse) on many workers and expects results at
// their input positions, identical across runs.
func TestCompileBatchDeterministicOrder(t *testing.T) {
	s := batch.New(batch.Options{Workers: 8})
	tgt := minimalTarget(t, s)

	var units []batch.Unit
	for _, u := range []struct{ name, body string }{
		{"a", "x := 1"},
		{"b", "x := 2 * 3 + 4"},
		{"broken", "x := := 1"},
		{"c", "x := 10 - 7"},
		{"d", "x := 5 * 5"},
		{"e", "x := 1 + 2 + 3"},
	} {
		units = append(units, batch.Unit{
			Name:   u.name + ".pas",
			Source: "program " + u.name + ";\nvar x: integer;\nbegin\n  " + u.body + "\nend.\n",
		})
	}

	first := s.CompileBatch(tgt, units)
	if len(first) != len(units) {
		t.Fatalf("got %d results for %d units", len(first), len(units))
	}
	for i, r := range first {
		if r.Name != units[i].Name {
			t.Errorf("result %d is %q, want %q", i, r.Name, units[i].Name)
		}
		if strings.HasPrefix(r.Name, "broken") {
			if r.Err == nil {
				t.Error("broken unit did not fail")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("unit %s: %v", r.Name, r.Err)
		}
	}
	second := s.CompileBatch(tgt, units)
	for i := range first {
		switch {
		case first[i].Err != nil:
			if second[i].Err == nil || first[i].Err.Error() != second[i].Err.Error() {
				t.Errorf("unit %s: error not reproducible", first[i].Name)
			}
		case first[i].Compiled.Listing() != second[i].Compiled.Listing():
			t.Errorf("unit %s: listing differs between identical batches", first[i].Name)
		}
	}

	v := s.Stats.Snapshot()
	if v.UnitsCompiled != 10 || v.UnitsFailed != 2 {
		t.Errorf("units compiled/failed = %d/%d, want 10/2", v.UnitsCompiled, v.UnitsFailed)
	}
	if v.QueueDepth != 0 {
		t.Errorf("queue depth %d after completion, want 0", v.QueueDepth)
	}
	if v.QueueDepthMax < int64(len(units)) {
		t.Errorf("peak queue depth %d, want >= %d", v.QueueDepthMax, len(units))
	}
}

// TestTranslateBatch drives raw IF streams through the pool.
func TestTranslateBatch(t *testing.T) {
	s := batch.New(batch.Options{Workers: 4})
	tgt, err := s.Target("amdahl470.cogg", specs.Amdahl470, rt370.Config())
	if err != nil {
		t.Fatal(err)
	}
	units := []batch.IFUnit{
		{Name: "add", Text: "assign fullword dsp.96 r.13 iadd fullword dsp.96 r.13 fullword dsp.100 r.13"},
		{Name: "bad", Text: "iadd iadd"},
		{Name: "mult", Text: "assign fullword dsp.96 r.13 imult fullword dsp.100 r.13 fullword dsp.104 r.13"},
	}
	res := s.TranslateBatch(tgt, units)
	if res[0].Err != nil || res[0].Instructions == 0 || !strings.Contains(res[0].Listing, "a ") {
		t.Errorf("add unit: %+v", res[0])
	}
	if res[1].Err == nil {
		t.Error("malformed IF unit did not fail")
	}
	if res[2].Err != nil || res[2].Instructions == 0 {
		t.Errorf("mult unit: %+v", res[2])
	}
	// A reused session translates exactly as the generator does.
	ses, err := tgt.Gen.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if got := batch.Translate(ses, tgt.Machine, units[2]); got != res[2] {
			t.Errorf("session pass %d: %+v, want %+v", pass, got, res[2])
		}
	}
}
