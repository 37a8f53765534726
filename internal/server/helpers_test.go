package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// goodIF is a minimal valid prefix-IF stream for the amdahl470 spec.
const goodIF = "assign fullword dsp.96 r.13 pos_constant v.7"

// badIF blocks the parse: the symbol is not declared in any spec.
const badIF = "assign fullword dsp.96 r.13 no_such_operator v.7"

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
		s.Close()
	})
	return s, ts
}

// post sends one JSON request and decodes the JSON answer into out.
func post(t *testing.T, url string, req any, out any) int {
	t.Helper()
	status, data := postBody(t, url, req, nil)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return status
}

// postBody sends one JSON request with the given headers and returns
// the status and the raw response body.
func postBody(t *testing.T, url string, req any, header http.Header) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hr.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// getJSON fetches url and decodes the JSON answer into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// compile posts one /v1/compile request.
func compile(t *testing.T, ts *httptest.Server, req CompileRequest) (int, CompileResponse) {
	t.Helper()
	var resp CompileResponse
	status := post(t, ts.URL+"/v1/compile", req, &resp)
	return status, resp
}
