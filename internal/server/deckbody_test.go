package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cogg/internal/pascal/pascaltest"
)

// deckBodiesSHA256 is the SHA-256 of the /v1/compile bodies, each cut
// before its trace_id field, that the daemon serves for deckRequests on
// a deck-cache miss. It was computed when the deck cache still stored a
// separate entry format and re-encoded every hit, so it pins the bytes
// every serving path (miss, local hit, a peer's warm-fetched hit, a
// batch result) must reproduce.
const deckBodiesSHA256 = "d93853931d75b6a5a5c7598a191445cbdad5e35c6c99af00c8d544119b3b3437"

// deckRequests are the golden deck requests: pascaltest seeds 1-40,
// each with the IF optimizer off and then on.
func deckRequests() []CompileRequest {
	var reqs []CompileRequest
	for seed := int64(1); seed <= 40; seed++ {
		for _, cse := range []bool{false, true} {
			reqs = append(reqs, CompileRequest{
				Name:    fmt.Sprintf("seed%d.pas", seed),
				Source:  pascaltest.Program(seed),
				Deck:    true,
				Options: CompileOptions{CSE: cse},
			})
		}
	}
	return reqs
}

// deckStem compiles req on ts, requires a 200 whose body ends in its
// trace_id field, and returns the body cut before that field.
func deckStem(t *testing.T, ts *httptest.Server, req CompileRequest) []byte {
	t.Helper()
	status, body := postBody(t, ts.URL+"/v1/compile", req, nil)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", req.Name, status, body)
	}
	i := bytes.LastIndex(body, []byte(`,"trace_id":`))
	if i < 0 || !bytes.HasSuffix(body, []byte("\"}\n")) {
		t.Fatalf("%s: body does not end in its trace_id: %s", req.Name, body)
	}
	return body[:i]
}

// batchResults posts reqs as one /v1/batch and returns each result's
// raw JSON.
func batchResults(t *testing.T, ts *httptest.Server, reqs []CompileRequest) []json.RawMessage {
	t.Helper()
	status, body := postBody(t, ts.URL+"/v1/batch", BatchRequest{Units: reqs}, nil)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
		Failed  int               `json:"failed"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch body does not decode: %v", err)
	}
	if resp.Failed != 0 || len(resp.Results) != len(reqs) {
		t.Fatalf("batch: %d results, %d failed, want %d and 0", len(resp.Results), resp.Failed, len(reqs))
	}
	return resp.Results
}

// TestDeckBodyGolden: every way a deck is served gives the same bytes.
// A miss reproduces the pinned corpus hash; the repeat (a local hit), a
// cold peer replica's warm-fetched hit, and a batch result, miss or hit,
// each equal the miss byte for byte, apart from the trace_id that only
// /v1/compile appends.
func TestDeckBodyGolden(t *testing.T) {
	reqs := deckRequests()
	a, tsA := newTestServer(t, Options{CacheDir: t.TempDir()})
	b, tsB := newTestServer(t, Options{CacheDir: t.TempDir(), BlobPeers: []string{tsA.URL}})
	_, tsC := newTestServer(t, Options{})

	h := sha256.New()
	stems := make([][]byte, len(reqs))
	for i, req := range reqs {
		name := fmt.Sprintf("%s cse=%v", req.Name, req.Options.CSE)
		stems[i] = deckStem(t, tsA, req)
		h.Write(stems[i])
		if hit := deckStem(t, tsA, req); !bytes.Equal(hit, stems[i]) {
			t.Errorf("%s: local hit differs from the miss", name)
		}
		if peer := deckStem(t, tsB, req); !bytes.Equal(peer, stems[i]) {
			t.Errorf("%s: peer replica's warm-fetched hit differs from the miss", name)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != deckBodiesSHA256 {
		t.Errorf("deck bodies of %d requests hash to %s, want %s", len(reqs), got, deckBodiesSHA256)
	}
	if n := a.svc.Stats.Snapshot().UnitsCompiled; n != int64(len(reqs)) {
		t.Errorf("replica A compiled %d units, want %d (one per miss)", n, len(reqs))
	}
	if n := b.svc.Stats.Snapshot().UnitsCompiled; n != 0 {
		t.Errorf("peer replica compiled %d units, want 0 (all warm-fetched)", n)
	}

	misses := batchResults(t, tsC, reqs)
	hits := batchResults(t, tsC, reqs)
	for i, req := range reqs {
		name := fmt.Sprintf("%s cse=%v", req.Name, req.Options.CSE)
		if want := append(stems[i][:len(stems[i]):len(stems[i])], '}'); !bytes.Equal(misses[i], want) {
			t.Errorf("%s: batch result differs from the /v1/compile body", name)
		}
		if !bytes.Equal(hits[i], misses[i]) {
			t.Errorf("%s: batch result for a hit differs from the one for a miss", name)
		}
	}
}

// TestDeckCacheMalformedEntry: bytes under a unit's deck key that are
// not that unit's body — another unit's body, garbage, or a body cut
// short — are never served. The request recompiles, answers as a clean
// miss would, and replaces the entry with its own body.
func TestDeckCacheMalformedEntry(t *testing.T) {
	src := readTestdata(t, "appendix1.pas")
	req := CompileRequest{Name: "unit.pas", Source: src, Deck: true}
	_, tsRef := newTestServer(t, Options{})
	want := deckStem(t, tsRef, req)
	foreign := CompileRequest{Name: "other.pas", Source: src, Deck: true}

	for _, tc := range []struct {
		name  string
		entry func(s *Server) []byte
	}{
		{"foreign name", func(s *Server) []byte {
			body, err := s.blobStore.Get(context.Background(), deckKey(admitted(t, s, foreign)))
			if err != nil {
				t.Fatalf("other unit's deck is not cached: %v", err)
			}
			return body
		}},
		{"garbage", func(*Server) []byte { return []byte("not a response body\n") }},
		{"truncated", func(*Server) []byte { return append([]byte(nil), want[:len(want)/2]...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Options{CacheDir: t.TempDir()})
			deckStem(t, ts, foreign)
			key := deckKey(admitted(t, s, req))
			if err := s.blobStore.Put(context.Background(), key, tc.entry(s)); err != nil {
				t.Fatal(err)
			}
			before := s.svc.Stats.Snapshot().UnitsCompiled
			if got := deckStem(t, ts, req); !bytes.Equal(got, want) {
				t.Errorf("answer over a malformed entry differs from a clean miss:\n%s", got)
			}
			if after := s.svc.Stats.Snapshot().UnitsCompiled; after != before+1 {
				t.Errorf("units compiled %d -> %d, want one recompile", before, after)
			}
			entry, err := s.blobStore.Get(context.Background(), key)
			if err != nil {
				t.Fatalf("entry not replaced: %v", err)
			}
			if !bytes.Equal(entry, append(want[:len(want):len(want)], "}\n"...)) {
				t.Errorf("replacement entry is not the unit's body:\n%s", entry)
			}
		})
	}
}

// admitted stages req on s as the handler would, for its deck key.
func admitted(t *testing.T, s *Server, req CompileRequest) *pending {
	t.Helper()
	p, err := s.admit(&req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTraceIDEscaped: the client's X-Trace-Id is echoed verbatim, so a
// header carrying JSON metacharacters must be escaped into the body's
// trace_id, on /v1/compile and /v1/batch alike.
func TestTraceIDEscaped(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	tid := `a"b\c<&>`
	hdr := http.Header{"X-Trace-Id": {tid}}
	unit := CompileRequest{Name: "g.if", Lang: "if", Source: goodIF}

	status, body := postBody(t, ts.URL+"/v1/compile", unit, hdr)
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusOK {
		t.Fatalf("compile: status %d, body %q does not decode: %v", status, body, err)
	}
	if resp.TraceID != tid {
		t.Errorf("compile trace_id = %q, want %q", resp.TraceID, tid)
	}

	status, body = postBody(t, ts.URL+"/v1/batch", BatchRequest{Units: []CompileRequest{unit, unit}}, hdr)
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil || status != http.StatusOK {
		t.Fatalf("batch: status %d, body %q does not decode: %v", status, body, err)
	}
	if batch.TraceID != tid || len(batch.Results) != 2 || batch.Results[1].Listing == "" {
		t.Errorf("batch = %+v, want trace_id %q and two listings", batch, tid)
	}
}
