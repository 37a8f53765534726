package blob

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// IndexFile is the sidecar's name inside an FS store's directory.
const IndexFile = "index.json"

// IndexEntry maps one human-meaningful artifact name to its blob: the
// manifest row that makes a digest-keyed store enumerable. Only table
// modules have rows, one per spec name + format version, written when
// the module is built. Everything else in the store (compiled decks) is
// derived cache with no name: it lists as unreferenced and gc ages it
// out.
type IndexEntry struct {
	Name    string    `json:"name"`    // e.g. "amdahl470.cogg"
	Version string    `json:"version"` // module format version, e.g. "CoGGtbl1"
	Kind    string    `json:"kind"`    // always "module" (rows of any other kind are dropped on read)
	Key     string    `json:"key"`     // the blob's digest key
	Content string    `json:"content"` // payload content digest
	Size    int64     `json:"size"`    // payload bytes
	Updated time.Time `json:"updated"` // last upsert
}

// id is the manifest row key: one row per (name, version, kind).
func (e IndexEntry) id() string { return e.Name + "@" + e.Version + "#" + e.Kind }

// Index is the decoded sidecar: artifact name+version -> blob digest.
// The blobs themselves are the truth (List scans them); the index is
// the view that lets `cogg cache ls|gc|verify` answer "what is this
// digest, and is anything still referring to it" without re-deriving
// keys from sources it does not have.
type Index struct {
	Entries map[string]IndexEntry `json:"entries"`
}

// Referenced reports every blob key the index still points at.
func (ix *Index) Referenced() map[string]bool {
	refs := make(map[string]bool, len(ix.Entries))
	for _, e := range ix.Entries {
		refs[e.Key] = true
	}
	return refs
}

// Sorted returns the entries ordered by name, version, kind — the
// stable order `cogg cache ls` prints.
func (ix *Index) Sorted() []IndexEntry {
	entries := make([]IndexEntry, 0, len(ix.Entries))
	for _, e := range ix.Entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Name != entries[j].Name {
			return entries[i].Name < entries[j].Name
		}
		if entries[i].Version != entries[j].Version {
			return entries[i].Version < entries[j].Version
		}
		return entries[i].Kind < entries[j].Kind
	})
	return entries
}

// ReadIndex loads the sidecar under dir; a missing file is an empty
// index, a corrupt one an error (the blobs are intact either way). A
// row whose key is not a blob key makes the sidecar corrupt. Rows of any
// kind but "module" (the deck rows older daemons wrote) are dropped, so
// their blobs become gc candidates and the next upsert rewrites the
// file without them.
func ReadIndex(dir string) (*Index, error) {
	ix := &Index{Entries: map[string]IndexEntry{}}
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		if os.IsNotExist(err) {
			return ix, nil
		}
		return nil, err
	}
	if err := json.Unmarshal(data, ix); err != nil {
		return nil, fmt.Errorf("blob: %s: %w", IndexFile, err)
	}
	if ix.Entries == nil {
		ix.Entries = map[string]IndexEntry{}
	}
	for id, e := range ix.Entries {
		if !ValidKey(e.Key) {
			return nil, fmt.Errorf("blob: %s: row %q: malformed key %q", IndexFile, id, e.Key)
		}
		if e.Kind != "module" {
			delete(ix.Entries, id)
		}
	}
	return ix, nil
}

// indexMu serializes this process's read-merge-write cycles. Across
// processes the write is atomic (temp + rename) and merges over a fresh
// read, so concurrent writers can at worst lose each other's newest
// row until the next upsert re-adds it — the blobs themselves are never
// at risk, and every consumer tolerates a missing row.
var indexMu sync.Mutex

// UpdateIndex upserts one manifest row under dir, atomically rewriting
// the sidecar (temp file + rename; no fsync — the index is a
// recomputable view, so crash-durability is the blobs' requirement,
// not the manifest's).
func UpdateIndex(dir string, e IndexEntry) error {
	if dir == "" {
		return nil
	}
	if e.Updated.IsZero() {
		e.Updated = time.Now().UTC()
	}
	indexMu.Lock()
	defer indexMu.Unlock()
	ix, err := ReadIndex(dir)
	if err != nil {
		// A corrupt sidecar is rebuilt from this row forward rather than
		// wedging every publish.
		ix = &Index{Entries: map[string]IndexEntry{}}
	}
	ix.Entries[e.id()] = e
	return writeIndex(dir, ix)
}

func writeIndex(dir string, ix *Index) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(ix, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, IndexFile+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, IndexFile)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// GCResult summarizes one garbage-collection pass.
type GCResult struct {
	Deleted     []string // unreferenced blob keys removed
	KeptYoung   []string // unreferenced but younger than the age floor
	KeptRef     int      // referenced blobs (untouched)
	Quarantined []string // quarantine files present (reported, never deleted)
	BytesFreed  int64
}

// GC deletes unreferenced blobs older than minAge from an FS store: a
// blob no manifest row points at is garbage once it has been orphaned
// long enough that no in-flight publish can still be about to index it.
// Quarantined entries are reported and kept — they are evidence.
func GC(fs *FS, minAge time.Duration) (GCResult, error) {
	var res GCResult
	ix, err := ReadIndex(fs.Dir())
	if err != nil {
		return res, err
	}
	refs := ix.Referenced()
	infos, err := fs.List(nil)
	if err != nil {
		return res, err
	}
	now := time.Now()
	for _, info := range infos {
		if refs[info.Key] {
			res.KeptRef++
			continue
		}
		if !info.ModTime.IsZero() && now.Sub(info.ModTime) < minAge {
			res.KeptYoung = append(res.KeptYoung, info.Key)
			continue
		}
		if err := fs.Delete(nil, info.Key); err != nil {
			return res, err
		}
		res.Deleted = append(res.Deleted, info.Key)
		res.BytesFreed += info.Size
	}
	for _, q := range fs.QuarantineFiles() {
		res.Quarantined = append(res.Quarantined, filepath.Base(q))
	}
	return res, nil
}

// VerifyResult summarizes one offline verification pass.
type VerifyResult struct {
	Checked    int
	Bad        []string // keys that failed re-verification (now quarantined)
	IndexDrift []string // manifest rows whose blob is missing or mismatched
}

// Verify re-reads and re-hashes every blob in an FS store (each read
// runs the same digest re-verification the serving path does, so a bad
// entry is quarantined as a side effect), then cross-checks the
// manifest: a row pointing at a missing blob or recording a different
// content digest is drift worth surfacing.
func Verify(fs *FS) (VerifyResult, error) {
	var res VerifyResult
	infos, err := fs.List(nil)
	if err != nil {
		return res, err
	}
	for _, info := range infos {
		res.Checked++
		if _, err := fs.Get(nil, info.Key); err != nil {
			var verr *VerifyError
			if errors.As(err, &verr) || errors.Is(err, ErrNotFound) {
				res.Bad = append(res.Bad, info.Key)
				continue
			}
			return res, err
		}
	}
	ix, err := ReadIndex(fs.Dir())
	if err != nil {
		res.IndexDrift = append(res.IndexDrift, "unreadable: "+err.Error())
		return res, nil
	}
	for _, e := range ix.Sorted() {
		info, err := fs.Stat(nil, e.Key)
		switch {
		case errors.Is(err, ErrNotFound):
			res.IndexDrift = append(res.IndexDrift, fmt.Sprintf("%s@%s: blob %s missing", e.Name, e.Version, short(e.Key)))
		case err != nil:
			res.IndexDrift = append(res.IndexDrift, fmt.Sprintf("%s@%s: %v", e.Name, e.Version, err))
		case e.Content != "" && !strings.EqualFold(info.Content, e.Content):
			res.IndexDrift = append(res.IndexDrift, fmt.Sprintf("%s@%s: content digest drifted", e.Name, e.Version))
		}
	}
	return res, nil
}
