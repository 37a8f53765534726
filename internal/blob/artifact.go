package blob

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ArtifactHandler serves the cogd artifact API over a local store:
//
//	GET  /v1/artifacts/{key}   the payload; ETag is the content digest,
//	                           If-None-Match answers 304 without a body
//	HEAD /v1/artifacts/{key}   existence + ETag + Content-Length
//	PUT  /v1/artifacts/{key}   store a payload; the X-Blob-Content-Sha256
//	                           header, when sent, is checked against the
//	                           received body so wire corruption is
//	                           rejected, never stored
//
// The store handed in must be the replica's LOCAL tiers only (memory +
// disk, never a Remote over other peers): two replicas pointing at each
// other would otherwise bounce a missing key back and forth forever. A
// verify failure on read answers 404 with an X-Blob-Verify: failed
// header — the corrupt entry was quarantined by the backend, and to the
// fetching peer an unservable blob is a miss.
//
// maxBytes caps an accepted PUT body; <= 0 means maxArtifactBytes.
func ArtifactHandler(store Store, maxBytes int64) http.Handler {
	if maxBytes <= 0 {
		maxBytes = maxArtifactBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, ArtifactPathPrefix)
		if !ValidKey(key) {
			http.Error(w, "artifact key must be 64 hex digits", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			serveGet(w, r, store, key)
		case http.MethodHead:
			serveHead(w, r, store, key)
		case http.MethodPut:
			servePut(w, r, store, key, maxBytes)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

func serveGet(w http.ResponseWriter, r *http.Request, store Store, key string) {
	// Stat first: a conditional GET whose ETag still matches costs a
	// header read, not a payload read (and no re-verification — the
	// requester's copy is the one being vouched for).
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if info, err := store.Stat(r.Context(), key); err == nil && etagMatch(inm, info.Content) {
			w.Header().Set("ETag", ETagFor(info.Content))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	payload, err := store.Get(r.Context(), key)
	if err != nil {
		writeGetErr(w, err)
		return
	}
	content := Sum(payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", ETagFor(content))
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	_, _ = w.Write(payload)
}

func writeGetErr(w http.ResponseWriter, err error) {
	var verr *VerifyError
	switch {
	case errors.As(err, &verr):
		// Quarantined by the backend; to the peer this key has nothing
		// servable behind it.
		w.Header().Set("X-Blob-Verify", "failed")
		http.Error(w, "artifact failed verification and was quarantined", http.StatusNotFound)
	case errors.Is(err, ErrNotFound):
		http.Error(w, "no such artifact", http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func serveHead(w http.ResponseWriter, r *http.Request, store Store, key string) {
	info, err := store.Stat(r.Context(), key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			w.WriteHeader(http.StatusNotFound)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", ETagFor(info.Content))
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
	w.WriteHeader(http.StatusOK)
}

func servePut(w http.ResponseWriter, r *http.Request, store Store, key string, maxBytes int64) {
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if want := r.Header.Get(ContentDigestHeader); want != "" {
		if got := Sum(payload); !strings.EqualFold(want, got) {
			http.Error(w, fmt.Sprintf("body digest %.12s does not match %s %.12s (corrupted in transit?)",
				got, ContentDigestHeader, want), http.StatusBadRequest)
			return
		}
	}
	if err := store.Put(r.Context(), key, payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// etagMatch implements the If-None-Match comparison against a content
// digest: "*" matches anything present, otherwise any listed ETag whose
// digest equals the stored one.
func etagMatch(header, content string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if etagDigest(strings.TrimSpace(part)) == content {
			return true
		}
	}
	return false
}
