package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"cogg/internal/fleet"
	"cogg/internal/obs"
)

// Front is the reverse-proxy tier over a Client: the handler cogdfront
// serves. Compile and batch traffic routes by spec key through the full
// policy engine; grammar-walk sessions — stateful cursors living on
// exactly one replica — get sticky routing via a replica token folded
// into the session ID. The token is a hash of the replica's URL, not a
// position in this front's target list, so the front stays stateless
// and a restart (or a second front with the same targets in any order)
// still routes every open session home.
type Front struct {
	c       *Client
	ring    *obs.Ring
	process string
}

// NewFront wraps a Client.
func NewFront(c *Client) *Front {
	return &Front{c: c, ring: obs.NewRing(256), process: "cogdfront"}
}

// SetProcess names this front in exported trace fragments
// ("cogdfront@:8471"). Call before serving traffic.
func (f *Front) SetProcess(p string) { f.process = p }

// startTrace opens the front's own trace fragment for one inbound
// request: parented from inbound propagation headers when the caller
// sent any, rooted fresh otherwise. Everything the policy engine does
// downstream — attempts, hedges, the degraded tier — hangs under the
// returned context's span.
func (f *Front) startTrace(r *http.Request, name string) (*obs.Trace, int, context.Context) {
	tid, parent := obs.Extract(r.Header)
	tr := obs.NewTrace(tid, name)
	tr.SetProcess(f.process)
	if parent != "" {
		tr.SetRemoteParent(parent)
	}
	span := tr.StartSpan("request", -1)
	return tr, span, obs.ContextWith(r.Context(), tr, span)
}

// finishTrace closes the request span and publishes the fragment to the
// front's ring, where /v1/traces (and cogg trace) can collect it.
func (f *Front) finishTrace(tr *obs.Trace, span int) {
	tr.EndSpan(span)
	f.ring.Add(tr.Snapshot())
}

// Handler builds the front's mux:
//
//	POST /v1/compile          routed by the request's spec
//	POST /v1/batch            routed by the first unit's spec
//	POST /v1/grammar/session  routed by spec; session_id gains a replica token
//	POST /v1/grammar/next     sticky to the session's replica
//	GET  /healthz             liveness: always 200
//	GET  /readyz              200 when at least one replica (or the local
//	                          tier) can take traffic, else 503
//	GET  /varz                replica health + policy counters as JSON
//	GET  /metrics             Prometheus text exposition (cluster_* series)
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		f.proxy(w, r, "/v1/compile", specKeyCompile)
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		f.proxy(w, r, "/v1/batch", specKeyBatch)
	})
	mux.HandleFunc("/v1/grammar/session", f.handleGrammarSession)
	mux.HandleFunc("/v1/grammar/next", f.handleGrammarNext)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", f.handleReadyz)
	mux.HandleFunc("/varz", f.handleVarz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/v1/traces", f.handleTraces)
	mux.HandleFunc("/v1/artifacts/", f.handleArtifacts)
	return mux
}

// handleArtifacts makes the front a read-only window onto the fleet's
// shared blob tier: a GET or HEAD for one digest sweeps the replicas in
// order and forwards the first hit. A replica answering 404 is a
// healthy miss — the sweep continues — and only when every admissible
// replica misses does the front answer 404 itself. Writes stay
// replica-to-replica (each cogd publishes what it builds); the front
// never accepts a PUT.
func (f *Front) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	for _, rep := range f.c.reps {
		if rep.br.State() == fleet.BreakerOpen {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.url+r.URL.Path, nil)
		if err != nil {
			continue
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		res, err := f.c.hc.Do(req)
		if err != nil {
			rep.br.Failure()
			continue
		}
		rep.br.Success()
		if res.StatusCode == http.StatusNotFound {
			_ = res.Body.Close()
			continue
		}
		for _, h := range []string{"Content-Type", "Content-Length", "ETag", "X-Blob-Content-Sha256"} {
			if v := res.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-Cogd-Replica", rep.url)
		w.WriteHeader(res.StatusCode)
		_, _ = io.Copy(w, res.Body)
		_ = res.Body.Close()
		return
	}
	http.Error(w, "artifact not found in fleet", http.StatusNotFound)
}

// specKeyCompile pulls the routing key out of a compile body.
func specKeyCompile(body []byte) string {
	var req struct {
		Spec string `json:"spec"`
	}
	_ = json.Unmarshal(body, &req)
	return req.Spec
}

// specKeyBatch keys a batch by its first unit's spec: batches are
// normally homogeneous, and a mixed batch still lands somewhere valid —
// affinity is an optimization, never a correctness requirement.
func specKeyBatch(body []byte) string {
	var req struct {
		Units []struct {
			Spec string `json:"spec"`
		} `json:"units"`
	}
	_ = json.Unmarshal(body, &req)
	if len(req.Units) > 0 {
		return req.Units[0].Spec
	}
	return ""
}

func (f *Front) proxy(w http.ResponseWriter, r *http.Request, path string, keyFn func([]byte) string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeFrontError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	tr, span, ctx := f.startTrace(r, "proxy:"+path)
	defer f.finishTrace(tr, span)
	w.Header().Set(obs.TraceIDHeader, tr.ID())
	res, err := f.c.Do(ctx, path, keyFn(body), body)
	if err != nil {
		tr.SetFailure("no-answer")
		writeFrontError(w, http.StatusBadGateway, err)
		return
	}
	writeResult(w, res)
}

// handleTraces exports the front's completed trace fragments, the same
// JSON shape as cogd's /v1/traces: {"traces":[...]}, newest first.
// ?id= filters to one trace's fragments; ?n= bounds the count.
func (f *Front) handleTraces(w http.ResponseWriter, r *http.Request) {
	var out []*obs.TraceData
	if id := r.URL.Query().Get("id"); id != "" {
		out = f.ring.Find(id)
	} else {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeFrontError(w, http.StatusBadRequest, fmt.Errorf("n must be a non-negative integer"))
				return
			}
			n = v
		}
		out = f.ring.Snapshot(n)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Traces []*obs.TraceData `json:"traces"`
	}{Traces: out})
}

// handleGrammarSession opens a cursor somewhere in the fleet and brands
// the returned session ID with the answering replica's URL-hash token
// ("3f21ab9c:<id>"), or "local:<id>" for the degraded tier, so
// /v1/grammar/next can route back. Opening a session is not idempotent
// — a hedged duplicate that loses the race would strand a cursor in the
// losing replica's bounded session table until its TTL — so this path
// routes through DoNoHedge.
func (f *Front) handleGrammarSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeFrontError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	tr, span, ctx := f.startTrace(r, "proxy:/v1/grammar/session")
	defer f.finishTrace(tr, span)
	w.Header().Set(obs.TraceIDHeader, tr.ID())
	res, err := f.c.DoNoHedge(ctx, "/v1/grammar/session", specKeyCompile(body), body)
	if err != nil {
		tr.SetFailure("no-answer")
		writeFrontError(w, http.StatusBadGateway, err)
		return
	}
	if res.Status == http.StatusOK {
		res.Body = rewriteSessionID(res.Body, f.sessionPrefix(res))
	}
	writeResult(w, res)
}

// handleGrammarNext strips the replica token off the session ID and
// sends the advance to exactly that replica — a cursor is state on one
// process; failing over would silently restart the walk.
func (f *Front) handleGrammarNext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeFrontError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var req struct {
		SessionID string `json:"session_id"`
		Symbol    string `json:"symbol"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeFrontError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	prefix, inner, ok := splitSessionID(req.SessionID)
	if !ok {
		writeFrontError(w, http.StatusBadRequest,
			fmt.Errorf("session_id %q carries no replica prefix; open sessions through this front", req.SessionID))
		return
	}
	req.SessionID = inner
	fwd, _ := json.Marshal(req)

	tr, span, ctx := f.startTrace(r, "proxy:/v1/grammar/next")
	defer f.finishTrace(tr, span)
	w.Header().Set(obs.TraceIDHeader, tr.ID())
	var res *Result
	if prefix == "local" {
		if f.c.opts.Local == nil {
			writeFrontError(w, http.StatusBadGateway, fmt.Errorf("local session but no local tier configured"))
			return
		}
		res, err = f.c.localDo(ctx, "/v1/grammar/next", fwd)
	} else {
		rep, ok := f.c.replicaByToken(prefix)
		if !ok {
			writeFrontError(w, http.StatusNotFound,
				fmt.Errorf("session prefix %q matches no replica in this front's target set", prefix))
			return
		}
		res, err = f.c.DoAt(ctx, rep.idx, "/v1/grammar/next", fwd)
	}
	if err != nil {
		tr.SetFailure("no-answer")
		writeFrontError(w, http.StatusBadGateway, err)
		return
	}
	res.Body = rewriteSessionID(res.Body, prefix+":")
	writeResult(w, res)
}

// sessionPrefix brands a session with the answering replica's token —
// a hash of its URL, stable across front restarts and independent of
// target-list order — or "local" for the degraded tier.
func (f *Front) sessionPrefix(res *Result) string {
	if res.Degraded {
		return "local:"
	}
	return f.c.reps[res.ReplicaIdx].token + ":"
}

// splitSessionID divides "3f21ab9c:abc" into ("3f21ab9c", "abc", true);
// IDs without a prefix report false.
func splitSessionID(id string) (prefix, inner string, ok bool) {
	i := strings.IndexByte(id, ':')
	if i <= 0 {
		return "", id, false
	}
	return id[:i], id[i+1:], true
}

// rewriteSessionID prefixes the session_id field of a JSON object body;
// bodies without one pass through unchanged.
func rewriteSessionID(body []byte, prefix string) []byte {
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		return body
	}
	id, _ := obj["session_id"].(string)
	if id == "" {
		return body
	}
	obj["session_id"] = prefix + id
	out, err := json.Marshal(obj)
	if err != nil {
		return body
	}
	return append(out, '\n')
}

// handleReadyz answers 200 when traffic has somewhere to go: any replica
// whose last probe said ready (or is unprobed with a non-open breaker),
// or the local degradation tier as a last resort.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := f.c.opts.Local != nil
	if !ready {
		for _, rep := range f.c.reps {
			probed, rdy := rep.isReady()
			if probed && !rdy {
				continue
			}
			if rep.br.State() != fleet.BreakerOpen {
				ready = true
				break
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no admissible replica")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (f *Front) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(f.c.Snapshot())
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if f.c.opts.Registry != nil {
		_ = f.c.opts.Registry.WriteText(w)
	}
}

// writeResult copies a cluster Result onto the wire, tagging the
// answering replica so operators can see routing from curl.
func writeResult(w http.ResponseWriter, res *Result) {
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if tid := res.Header.Get("X-Trace-Id"); tid != "" {
		w.Header().Set("X-Trace-Id", tid)
	}
	w.Header().Set("X-Cogd-Replica", res.Replica)
	if res.Attempts > 1 || res.Hedges > 0 {
		w.Header().Set("X-Cogd-Attempts", strconv.Itoa(res.Attempts))
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

func writeFrontError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
