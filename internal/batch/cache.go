package batch

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"cogg/internal/blob"
	"cogg/internal/profiling"
	"cogg/internal/tables"
)

// Key derives the cache key for a specification — the blob-store digest
// every table module is published under. Key derivation has a single
// owner, blob.DigestModule: the hex SHA-256 over the table-module
// format version, the specification name, and the specification bytes,
// so a one-byte spec edit, a rename, or a format-version bump each
// orphan the old artifact.
func Key(specName, specSrc string) string {
	return blob.DigestModule(tables.FormatVersion(), specName, []byte(specSrc))
}

// moduleLRU is the decoded-module tier: table modules by cache key,
// evicting least-recently-used beyond cap. Modules are immutable after
// decode, so one cached module may be handed to any number of callers.
// This tier sits above the blob store (which holds encoded bytes); a
// hit here costs neither decode nor I/O.
type moduleLRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	byKey map[string]*list.Element
}

type lruEntry struct {
	key string
	mod *tables.Module
}

func newModuleLRU(capacity int) *moduleLRU {
	return &moduleLRU{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

func (c *moduleLRU) get(key string) (*tables.Module, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).mod, true
}

func (c *moduleLRU) put(key string, mod *tables.Module) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).mod = mod
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, mod: mod})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}

// loadStore tries the blob store below the decoded-module tier. A
// verify failure (the backend quarantined the entry) or a decode
// failure (a payload that is intact bytes but not a module — the entry
// is deleted) discards the entry and falls back to regeneration rather
// than surfacing an error.
func (s *Service) loadStore(ctx context.Context, key string) (*tables.Module, bool) {
	if s.store == nil {
		return nil, false
	}
	data, err := s.store.Get(ctx, key)
	if err != nil {
		var verr *blob.VerifyError
		if errors.As(err, &verr) {
			s.Stats.DiskBad.Add(1)
		}
		return nil, false
	}
	start := time.Now()
	var mod *tables.Module
	profiling.Phase("decode", func() {
		mod, err = tables.Decode(data)
	})
	if err != nil {
		s.Stats.DiskBad.Add(1)
		_ = s.store.Delete(ctx, key)
		return nil, false
	}
	s.Stats.DecodeNanos.Add(int64(time.Since(start)))
	s.Stats.DiskHits.Add(1)
	return mod, true
}

// storeBlob publishes an encoded module into the blob store under its
// key and — when this service fronts an on-disk store — upserts the
// index sidecar row so `cogg cache ls|gc|verify` can map the digest
// back to its specification.
func (s *Service) storeBlob(ctx context.Context, key, specName string, mod *tables.Module) error {
	if s.store == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := tables.EncodeModule(&buf, mod); err != nil {
		return err
	}
	if err := s.store.Put(ctx, key, buf.Bytes()); err != nil {
		return err
	}
	s.Stats.DiskBytes.Add(int64(buf.Len()))
	if s.indexDir != "" {
		// Index drift is tolerable (the blobs are the truth); a failed
		// upsert degrades enumeration, not correctness.
		_ = blob.UpdateIndex(s.indexDir, blob.IndexEntry{
			Name:    specName,
			Version: tables.FormatVersion(),
			Kind:    "module",
			Key:     key,
			Content: blob.Sum(buf.Bytes()),
			Size:    int64(buf.Len()),
		})
	}
	return nil
}
