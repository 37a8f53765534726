package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cogg/internal/asm"
	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/codegen"
	"cogg/internal/faultinject"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/obs"
	"cogg/internal/shaper"
)

type lang int

const (
	langPascal lang = iota
	langIF
)

// pending is one admitted request waiting for (or holding) its result.
// The executing worker is the only writer of resp/status and the only
// closer of done; the handler reads resp only after done closes.
type pending struct {
	name    string
	lang    lang
	source  string
	opt     shaper.Options
	deck    bool
	showIF  bool
	explain bool
	mt      *modTarget
	ctx     context.Context

	// tr/unitSpan/queueSpan tie this unit into its request's trace: the
	// unit span covers admission through finish, with a queue-wait child
	// the executor closes when it picks the unit up.
	tr        *obs.Trace
	unitSpan  int
	queueSpan int

	resp   CompileResponse
	status int
	done   chan struct{}
}

// attachTrace parents this unit's spans under the request span.
func (p *pending) attachTrace(tr *obs.Trace, parent int) {
	p.tr = tr
	p.unitSpan = tr.StartSpan("unit:"+p.name, parent)
	p.queueSpan = tr.StartSpan("queue-wait", p.unitSpan)
}

// endQueue closes the queue-wait span; the executor calls it the moment
// a micro-batch claims the unit.
func (p *pending) endQueue() {
	if p.tr != nil {
		p.tr.EndSpan(p.queueSpan)
	}
}

func (p *pending) finish(status int, resp CompileResponse) {
	if p.tr != nil {
		p.tr.EndSpan(p.unitSpan)
	}
	p.status = status
	p.resp = resp
	close(p.done)
}

// collect is the micro-batcher: it blocks for the first queued request,
// then coalesces whatever arrives within BatchWindow (up to BatchMax)
// into one batch dispatched over the worker pool. Under load the window
// never waits its full length — the batch fills first — so coalescing
// costs idle-traffic latency only.
func (s *Server) collect() {
	defer close(s.collectorDone)
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case <-s.stop:
			// Dispatch anything still queued so no caller hangs.
			for {
				select {
				case p := <-s.queue:
					go s.execute([]*pending{p})
				default:
					return
				}
			}
		}
		group := []*pending{first}
		timer := time.NewTimer(s.opts.BatchWindow)
	gather:
		for len(group) < s.opts.BatchMax {
			select {
			case p := <-s.queue:
				group = append(group, p)
			case <-timer.C:
				break gather
			}
		}
		timer.Stop()
		s.stats.noteBatch(len(group))
		go s.execute(group)
	}
}

// execute runs one micro-batch: requests whose deadline already passed
// are answered immediately, the rest are partitioned by (module, lang)
// and driven through the batch service, which supplies worker fan-out,
// per-unit panic isolation, deadlines, and statistics.
func (s *Server) execute(group []*pending) {
	type part struct {
		mt *modTarget
		l  lang
	}
	// The flush failpoint models the dispatch path itself failing (a
	// worker-pool wedge, an OOM between collect and run): the whole
	// micro-batch answers 503 + Retry-After, and a resilient client
	// retries each unit elsewhere.
	if err := faultinject.Eval("server/batch/flush", group[0].name); err != nil {
		for _, p := range group {
			p.endQueue()
			p.finish(http.StatusServiceUnavailable, CompileResponse{
				Name:    p.name,
				Failure: &Failure{Mode: batch.FailIO.String(), Message: "batch flush failed: " + err.Error()},
			})
		}
		return
	}
	parts := map[part][]*pending{}
	order := []part{}
	for _, p := range group {
		p.endQueue()
		if p.ctx.Err() != nil {
			p.finish(http.StatusGatewayTimeout, CompileResponse{
				Name:    p.name,
				Failure: &Failure{Mode: batch.FailTimeout.String(), Message: "deadline exceeded while queued"},
			})
			continue
		}
		k := part{p.mt, p.lang}
		if _, ok := parts[k]; !ok {
			order = append(order, k)
		}
		parts[k] = append(parts[k], p)
	}
	for _, k := range order {
		ps := parts[k]
		if k.l == langIF {
			s.executeIF(k.mt, ps)
		} else {
			s.executePascal(k.mt, ps)
		}
	}
}

// executeIF drives raw prefix-IF units through the module's session
// pool: reused sessions keep the emission hot path allocation-free, and
// the listing is rendered before the session is re-pooled because the
// program buffer aliases session storage.
func (s *Server) executeIF(mt *modTarget, ps []*pending) {
	units := make([]batch.IFUnit, len(ps))
	for i, p := range ps {
		units[i] = batch.IFUnit{Name: p.name, Text: p.source, Ctx: p.ctx}
	}
	results := s.svc.TranslateBatchWith(units, mt.translate)
	for i, p := range ps {
		r := results[i]
		if r.Err != nil {
			f := failureFor(r.Err, r.Mode)
			if r.Mode == batch.FailBlocked {
				f.Derivation = explainUnit(p)
			}
			p.finish(StatusFor(r.Mode), CompileResponse{Name: p.name, Failure: f})
			continue
		}
		resp := CompileResponse{
			Name:         p.name,
			Listing:      r.Listing,
			Tokens:       r.Tokens,
			Reductions:   r.Reductions,
			Instructions: r.Instructions,
			CodeBytes:    r.CodeBytes,
		}
		if p.explain {
			resp.Derivation = explainUnit(p)
		}
		p.finish(http.StatusOK, resp)
	}
}

// explainUnit re-runs one unit with derivation recording on a fresh,
// throwaway session, for diagnostics only: blocked-parse 422s attach
// their partial derivation, and explain:true requests their full one.
// Keeping recording off the pooled path preserves its zero-allocation
// steady state; a blocked parse is cheap to repeat (it stops at the
// block) and deterministic, so the re-run reproduces exactly the
// instructions the failing attempt emitted. The recover guard means a
// diagnostic re-run can never take down the executor goroutine.
func explainUnit(p *pending) (prov []codegen.ProvEntry) {
	defer func() { _ = recover() }()
	if p.lang == langIF {
		toks, err := ir.ParseTokens(p.source)
		if err != nil {
			return nil
		}
		_, prov, _, _ = p.mt.tgt.Explain(p.name, toks)
		return prov
	}
	_, prov, _, _ = p.mt.tgt.ExplainSource(p.name, p.source, p.opt)
	return prov
}

// translate is the pooled-session unit translator handed to
// TranslateBatchWith. It runs inside the batch service's per-unit
// recover: a panic mid-translation unwinds past the put, so the
// poisoned session is simply never re-pooled.
func (t *modTarget) translate(u batch.IFUnit) batch.IFResult {
	ses, err := t.pool.get()
	if err != nil {
		return batch.IFResult{Name: u.Name, Err: err}
	}
	r := translateSession(t, ses, u)
	t.pool.put(ses, r.Err)
	return r
}

// translateSession is one IF translation on a caller-owned session —
// the batch service's stock translator, minus the per-call session
// build. The returned listing is a fresh string; nothing in the result
// aliases session storage, so the session may be reused immediately.
func translateSession(t *modTarget, ses *codegen.Session, u batch.IFUnit) batch.IFResult {
	toks, err := ir.ParseTokens(u.Text)
	if err != nil {
		return batch.IFResult{Name: u.Name, Err: err}
	}
	ctx := u.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	prog, res, err := ses.GenerateCtx(ctx, u.Name, toks)
	if err != nil {
		return batch.IFResult{Name: u.Name, Err: err}
	}
	if err := labels.Layout(prog, t.tgt.Machine); err != nil {
		return batch.IFResult{Name: u.Name, Err: err}
	}
	return batch.IFResult{
		Name:         u.Name,
		Listing:      asm.Listing(prog, t.tgt.Machine),
		Tokens:       len(toks),
		Reductions:   res.Reductions,
		Instructions: prog.InstructionCount(),
		CodeBytes:    prog.CodeSize,
	}
}

// deckCacheEntry is the blob-cached form of a deck-producing compile:
// everything a CompileResponse needs, so a warm replica answers a
// repeated deck request from the artifact tier without touching the
// pipeline — and a fleet peer's deck serves here byte-identically.
type deckCacheEntry struct {
	Listing      string `json:"listing"`
	Tokens       int    `json:"tokens"`
	Reductions   int    `json:"reductions"`
	Instructions int    `json:"instructions"`
	CodeBytes    int    `json:"code_bytes"`
	Deck         string `json:"deck_b64"`
}

// deckCacheable: only plain deck-producing Pascal successes are
// cached. Explain output is interpreter-provenance (cheap to re-derive,
// huge to store) and showIF is a debugging view; both stay uncached.
func (p *pending) deckCacheable() bool {
	return p.deck && !p.explain && !p.showIF && p.lang == langPascal
}

// deckKey derives a deck's blob key from everything the output depends
// on: the scheme tag, the module key (which already covers format
// version + spec name + spec source), the unit name and source, and the
// shaper option flags.
func deckKey(mt *modTarget, p *pending) string {
	o := p.opt
	flags := fmt.Sprintf("sr=%v sc=%v uc=%v cse=%v",
		o.StatementRecords, o.SubscriptChecks, o.UninitChecks, o.CSE != nil)
	return blob.DigestParts("deck/v1", mt.key, p.name, p.source, flags)
}

// deckCacheGet answers one pending from the blob tier; any miss or
// malformed entry falls through to compilation.
func (s *Server) deckCacheGet(mt *modTarget, p *pending) (CompileResponse, bool) {
	if s.blobStore == nil {
		return CompileResponse{}, false
	}
	key := deckKey(mt, p)
	data, err := s.blobStore.Get(p.ctx, key)
	if err != nil {
		return CompileResponse{}, false
	}
	var e deckCacheEntry
	if json.Unmarshal(data, &e) != nil || e.Deck == "" {
		// Intact bytes that are not a deck entry: drop and recompile.
		_ = s.blobStore.Delete(p.ctx, key)
		return CompileResponse{}, false
	}
	return CompileResponse{
		Name:         p.name,
		Listing:      e.Listing,
		Tokens:       e.Tokens,
		Reductions:   e.Reductions,
		Instructions: e.Instructions,
		CodeBytes:    e.CodeBytes,
		Deck:         e.Deck,
	}, true
}

// deckCachePut publishes one successful deck compile into the blob
// tier (best-effort) and, when a disk tier exists, upserts the index
// sidecar so `cogg cache ls` can name the digest.
func (s *Server) deckCachePut(mt *modTarget, p *pending, resp CompileResponse) {
	if s.blobStore == nil {
		return
	}
	data, err := json.Marshal(deckCacheEntry{
		Listing:      resp.Listing,
		Tokens:       resp.Tokens,
		Reductions:   resp.Reductions,
		Instructions: resp.Instructions,
		CodeBytes:    resp.CodeBytes,
		Deck:         resp.Deck,
	})
	if err != nil {
		return
	}
	key := deckKey(mt, p)
	if err := s.blobStore.Put(p.ctx, key, data); err != nil {
		return
	}
	if s.opts.CacheDir != "" {
		_ = blob.UpdateIndex(s.opts.CacheDir, blob.IndexEntry{
			Name:    mt.specName + "/" + p.name,
			Version: "deck/v1",
			Kind:    "deck",
			Key:     key,
			Content: blob.Sum(data),
			Size:    int64(len(data)),
		})
	}
}

// executePascal compiles Pascal units through the full driver pipeline.
// The front end allocates per program regardless, so this path uses the
// service's stock per-unit sessions rather than the pool; the raw-IF
// path is the allocation-free one. Deck-producing units consult the
// blob tier first — a deck compiled by any replica in the fleet serves
// here without re-entering the pipeline.
func (s *Server) executePascal(mt *modTarget, ps []*pending) {
	run := make([]*pending, 0, len(ps))
	for _, p := range ps {
		if p.deckCacheable() {
			if resp, ok := s.deckCacheGet(mt, p); ok {
				p.finish(http.StatusOK, resp)
				continue
			}
		}
		run = append(run, p)
	}
	if len(run) == 0 {
		return
	}
	units := make([]batch.Unit, len(run))
	for i, p := range run {
		units[i] = batch.Unit{Name: p.name, Source: p.source, Opt: p.opt, Ctx: p.ctx}
	}
	results := s.svc.CompileBatch(mt.tgt, units)
	for i, p := range run {
		r := results[i]
		if r.Err != nil {
			f := failureFor(r.Err, r.Mode)
			if r.Mode == batch.FailBlocked {
				f.Derivation = explainUnit(p)
			}
			p.finish(StatusFor(r.Mode), CompileResponse{Name: p.name, Failure: f})
			continue
		}
		c := r.Compiled
		resp := CompileResponse{
			Name:         p.name,
			Listing:      c.Listing(),
			Tokens:       len(c.Tokens),
			Reductions:   c.Result.Reductions,
			Instructions: c.Prog.InstructionCount(),
			CodeBytes:    c.Prog.CodeSize,
		}
		if p.showIF {
			resp.IF = ir.FormatTokens(c.Tokens)
		}
		if p.explain {
			resp.Derivation = explainUnit(p)
		}
		if p.deck {
			var b strings.Builder
			if err := c.Deck.WriteCards(&b); err != nil {
				p.finish(http.StatusInternalServerError, CompileResponse{
					Name:    p.name,
					Failure: &Failure{Mode: batch.FailIO.String(), Message: "rendering deck: " + err.Error()},
				})
				continue
			}
			resp.Deck = base64.StdEncoding.EncodeToString([]byte(b.String()))
			if p.deckCacheable() {
				s.deckCachePut(mt, p, resp)
			}
		}
		p.finish(http.StatusOK, resp)
	}
}
