package blob

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestIndexUpsertLookup(t *testing.T) {
	dir := t.TempDir()
	e := IndexEntry{Name: "amdahl470.cogg", Version: "CoGGtbl1", Kind: "module",
		Key: DigestParts("m1"), Content: Sum([]byte("m1")), Size: 2}
	if err := UpdateIndex(dir, e); err != nil {
		t.Fatal(err)
	}
	// Upsert replaces, not appends.
	e.Size = 4
	if err := UpdateIndex(dir, e); err != nil {
		t.Fatal(err)
	}
	if err := UpdateIndex(dir, IndexEntry{Name: "risc32.cogg", Version: "CoGGtbl1",
		Kind: "module", Key: DigestParts("m2")}); err != nil {
		t.Fatal(err)
	}

	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) != 2 {
		t.Fatalf("index holds %d rows, want 2", len(ix.Entries))
	}
	sorted := ix.Sorted()
	if sorted[0].Name != "amdahl470.cogg" || sorted[1].Name != "risc32.cogg" {
		t.Fatalf("Sorted order: %s, %s", sorted[0].Name, sorted[1].Name)
	}
	if got := sorted[0]; got.Size != 4 || got.Key != e.Key {
		t.Fatalf("upserted row = %+v", got)
	}
	if sorted[0].Updated.IsZero() {
		t.Error("upsert did not stamp Updated")
	}
	if !ix.Referenced()[e.Key] {
		t.Error("Referenced misses an indexed key")
	}
}

func TestIndexCorruptSidecarRebuilds(t *testing.T) {
	for name, sidecar := range map[string]string{
		"torn json": "{torn json",
		// A row whose key is no blob key would reach ls's key[:12] and
		// Verify's Stat; the whole sidecar is corrupt instead.
		"short key": `{"entries":{"n@v#module":{"name":"n","version":"v","kind":"module","key":"abc"}}}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, IndexFile), []byte(sidecar), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadIndex(dir); err == nil {
				t.Fatal("corrupt sidecar read as valid")
			}
			// An upsert over a corrupt sidecar rebuilds rather than wedging.
			if err := UpdateIndex(dir, IndexEntry{Name: "n", Version: "v", Kind: "module",
				Key: DigestParts("rebuild")}); err != nil {
				t.Fatal(err)
			}
			ix, err := ReadIndex(dir)
			if err != nil || len(ix.Entries) != 1 {
				t.Fatalf("rebuilt index = %+v, %v", ix, err)
			}
		})
	}
}

// TestGC: referenced blobs stay, unreferenced old blobs go (a legacy
// deck row references nothing), young blobs get grace, quarantined
// entries are reported and kept.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(dir)
	refKey, oldKey, youngKey := DigestParts("ref"), DigestParts("old"), DigestParts("young")
	deckKey := DigestParts("deck")
	for _, k := range []string{refKey, oldKey, youngKey, deckKey} {
		if err := fs.Put(ctx, k, []byte("payload for "+short(k))); err != nil {
			t.Fatal(err)
		}
	}
	// The module's row next to a deck row as older daemons wrote it,
	// straight into the sidecar.
	sidecar := `{"entries":{` +
		`"kept.cogg@v#module":{"name":"kept.cogg","version":"v","kind":"module","key":"` + refKey + `"},` +
		`"amdahl470/a.pas@deck/v2#deck":{"name":"amdahl470/a.pas","version":"deck/v2","kind":"deck","key":"` + deckKey + `"}}}`
	if err := os.WriteFile(filepath.Join(dir, IndexFile), []byte(sidecar), 0o644); err != nil {
		t.Fatal(err)
	}
	// Age the referenced, unreferenced-old and deck entries past the floor.
	past := time.Now().Add(-2 * time.Hour)
	for _, k := range []string{refKey, oldKey, deckKey} {
		if err := os.Chtimes(filepath.Join(dir, k+blobExt), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// A quarantined corpse to report.
	if err := os.WriteFile(filepath.Join(dir, DigestParts("corpse")+quarantineExt), []byte("evidence"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := GC(fs, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if deleted := strings.Join(res.Deleted, " "); len(res.Deleted) != 2 ||
		!strings.Contains(deleted, oldKey) || !strings.Contains(deleted, deckKey) {
		t.Errorf("Deleted = %v, want %s and the legacy deck %s", res.Deleted, short(oldKey), short(deckKey))
	}
	if res.KeptRef != 1 {
		t.Errorf("KeptRef = %d, want 1", res.KeptRef)
	}
	if len(res.KeptYoung) != 1 || res.KeptYoung[0] != youngKey {
		t.Errorf("KeptYoung = %v", res.KeptYoung)
	}
	if len(res.Quarantined) != 1 {
		t.Errorf("Quarantined = %v, want the corpse reported", res.Quarantined)
	}
	if res.BytesFreed <= 0 {
		t.Error("BytesFreed not accounted")
	}
	if _, err := fs.Get(ctx, refKey); err != nil {
		t.Errorf("referenced blob deleted: %v", err)
	}
	for _, k := range []string{oldKey, deckKey} {
		if _, err := fs.Get(ctx, k); err == nil {
			t.Errorf("unreferenced old blob %s survived GC", short(k))
		}
	}
	if len(fs.QuarantineFiles()) != 1 {
		t.Error("GC deleted a quarantine file")
	}

	// The next module upsert rewrites the sidecar without the deck row.
	if err := UpdateIndex(dir, IndexEntry{Name: "kept.cogg", Version: "v", Kind: "module", Key: refKey}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), deckKey) || !strings.Contains(string(raw), refKey) {
		t.Errorf("sidecar after upsert:\n%s\nwant the module row only", raw)
	}
}

// TestVerifyFindsRotAndDrift: offline verification re-hashes every
// blob (quarantining rot) and cross-checks the manifest.
func TestVerifyFindsRotAndDrift(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(dir)
	goodKey, badKey := DigestParts("good"), DigestParts("bad")
	if err := fs.Put(ctx, goodKey, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, badKey, []byte("will rot")); err != nil {
		t.Fatal(err)
	}
	// Rot one blob on disk.
	path := filepath.Join(dir, badKey+blobExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x02
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A manifest row pointing at a blob that does not exist: drift.
	if err := UpdateIndex(dir, IndexEntry{Name: "ghost.cogg", Version: "v", Kind: "module",
		Key: DigestParts("ghost")}); err != nil {
		t.Fatal(err)
	}

	res, err := Verify(fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 2 {
		t.Errorf("Checked = %d, want 2", res.Checked)
	}
	if len(res.Bad) != 1 || res.Bad[0] != badKey {
		t.Errorf("Bad = %v, want [%s]", res.Bad, short(badKey))
	}
	if len(res.IndexDrift) != 1 {
		t.Errorf("IndexDrift = %v, want the ghost row", res.IndexDrift)
	}
	if len(fs.QuarantineFiles()) != 1 {
		t.Error("verification did not quarantine the rotten blob")
	}
}
