// Package blob is the content-addressed artifact tier: one namespace of
// immutable byte blobs — encoded table modules, compiled card decks —
// keyed by hex SHA-256 digests and shared across a fleet of cogd
// replicas, so the paper's expensive artifact (the SLR driving tables)
// is built once anywhere and reused everywhere.
//
// A Store is a flat digest-keyed byte store. Three backends implement
// it:
//
//   - Mem: a bounded in-memory LRU — the L1 tier, and the whole store
//     in tests and disk-less replicas (it is what lets a peer fetch a
//     module from a replica that has no cache directory at all);
//   - FS: one file per blob under a directory, written with the
//     crash-safe fsync+rename+dir-fsync protocol and swept for orphaned
//     temp files at startup — the refactor of the batch service's
//     original disk cache into a reusable backend;
//   - Remote (package-internal name: httpblob): a cogd peer speaking
//     the artifact API (GET/PUT/HEAD /v1/artifacts/{digest}) with
//     digest ETags, conditional GET, client-side singleflight, and the
//     cluster tier's breaker/backoff policy.
//
// Tiered layers them read-through/write-through: a Get that misses the
// memory tier falls to disk, then to the fleet, promoting hits upward;
// a Put writes through every tier it can reach.
//
// # Keys and integrity
//
// A key names an artifact; it is the hex SHA-256 of what the artifact
// was derived from (for table modules: format version + spec name +
// spec bytes — see DigestModule, the single owner of the PR 1 cache
// key). The key is therefore content-addressed in the derivation sense
// but is not the hash of the stored bytes. Every stored blob carries a
// separate content digest — the hex SHA-256 of its payload — in its
// disk envelope and as its HTTP ETag, and every read re-verifies the
// payload against it. A mismatch is never served and never silently
// deleted: the backend quarantines the entry (FS renames it aside; Mem
// drops it; Remote leaves the peer's copy to the peer's own next read),
// returns a *VerifyError, and the caller falls through to the next tier
// or rebuilds from source.
package blob

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"cogg/internal/faultinject"
)

// ErrNotFound reports a key with no blob behind it — the cache-miss
// answer, distinct from infrastructure trouble.
var ErrNotFound = errors.New("blob: not found")

// ErrTooLarge reports a payload over maxArtifactBytes, the cap on one
// artifact crossing the wire in either direction.
var ErrTooLarge = fmt.Errorf("blob: payload exceeds the %d MiB artifact cap", maxArtifactBytes>>20)

// maxArtifactBytes caps one artifact on the wire: the default limit on
// a PUT body the artifact API accepts, and the most a Remote reads of a
// peer's answer.
const maxArtifactBytes = 64 << 20

// VerifyError reports a blob whose payload no longer hashes to its
// recorded content digest: disk rot, a truncated write that slipped
// past the crash protocol, or wire corruption. The entry has been
// quarantined by the backend that found it, not deleted.
type VerifyError struct {
	Backend string // "mem", "fs", "http"
	Key     string
	Want    string // recorded content digest
	Got     string // digest of the bytes actually read
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("blob: %s: %s: content digest mismatch (want %.12s, got %.12s)",
		e.Backend, short(e.Key), e.Want, e.Got)
}

// Info describes one stored blob.
type Info struct {
	Key     string    // the blob's digest key
	Content string    // hex SHA-256 of the payload
	Size    int64     // payload bytes
	ModTime time.Time // backend-dependent; zero when unknown
}

// Store is a flat content-addressed byte store. Implementations must be
// safe for concurrent use. Get re-verifies the payload against its
// recorded content digest on every read and returns *VerifyError —
// never the corrupt bytes — on mismatch. Keys are hex SHA-256 digests
// (see ValidKey); behavior under other keys is unspecified.
type Store interface {
	// Get returns the payload under key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores payload under key. Puts are idempotent: re-putting an
	// existing key overwrites (the payload for a key is derived
	// deterministically, so overwrites are byte-identical in practice).
	Put(ctx context.Context, key string, payload []byte) error
	// Stat describes the blob under key without reading its payload, or
	// returns ErrNotFound.
	Stat(ctx context.Context, key string) (Info, error)
	// List enumerates every stored blob. Remote backends may decline
	// with an error; local backends must not.
	List(ctx context.Context) ([]Info, error)
	// Delete removes the blob under key; deleting a missing key is not
	// an error.
	Delete(ctx context.Context, key string) error
}

// Sum is the content digest of a payload: hex SHA-256 over the raw
// bytes.
func Sum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// DigestParts derives a key from an ordered list of parts: hex SHA-256
// over each part prefixed by its little-endian 64-bit length, so part
// boundaries can never be confused ("ab","c" and "a","bc" digest
// differently).
func DigestParts(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, part := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DigestModule derives the table-module cache key — the PR 1 key, now
// owned here: hex SHA-256 over the module format version, the
// specification name, and the specification bytes. All three matter for
// staleness:
//
//   - a one-byte edit to the spec source must miss,
//   - two specs with identical text but different names are distinct
//     artifacts (diagnostics embed the name), and
//   - a format-version bump must orphan every module serialized under
//     the old encoding.
func DigestModule(version, name string, specBytes []byte) string {
	return DigestParts(version, name, string(specBytes))
}

// ValidKey reports whether key is a well-formed blob key: 64 lowercase
// hex digits. The artifact HTTP API rejects anything else before
// touching a backend, which is also what keeps keys path-safe.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// verifyPayload re-hashes a payload against its recorded content digest
// under the blob/verify failpoint; a non-nil return is the
// *VerifyError the backend must surface after quarantining the entry.
func verifyPayload(backend, key, content string, payload []byte) *VerifyError {
	got := Sum(payload)
	if err := faultinject.Eval("blob/verify", key); err != nil {
		return &VerifyError{Backend: backend, Key: key, Want: content, Got: "injected:" + got[:8]}
	}
	if got != content {
		return &VerifyError{Backend: backend, Key: key, Want: content, Got: got}
	}
	return nil
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// ctxErr surfaces a context already over deadline so backends bail
// before doing work; plain stores are otherwise synchronous.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
