package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"time"

	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/codegen"
	"cogg/internal/faultinject"
	"cogg/internal/ir"
	"cogg/internal/obs"
	"cogg/internal/shaper"
)

type lang int

const (
	langPascal lang = iota
	langIF
)

// pending is one admitted request waiting for (or holding) its result.
// The executing worker is the only writer of the answer fields and the
// only closer of done; the handler reads them only after done closes.
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

	// body is the unit's encoded CompileResponse without trace_id, which
	// the handler appends; failMode names its failure, "" on success.
	body     []byte
	status   int
	failMode string
	done     chan struct{}
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

// finish answers the unit with its encoded body.
func (p *pending) finish(status int, body []byte, failMode string) {
	if p.tr != nil {
		p.tr.EndSpan(p.unitSpan)
	}
	p.status = status
	p.body = body
	p.failMode = failMode
	close(p.done)
}

// fail answers the unit with a failure.
func (p *pending) fail(status int, f *Failure) {
	p.finish(status, failureBody(p.name, f), f.Mode)
}

// The micro-batcher's shape: how long the collector waits to coalesce
// more requests after the first, and how many units one micro-batch
// may hold.
const (
	batchWindow = 200 * time.Microsecond
	batchMax    = 64
)

// collect is the micro-batcher: it blocks for the first queued request,
// then coalesces whatever arrives within batchWindow (up to batchMax)
// into one micro-batch, run on its own goroutine through the batch
// service. Under load the window never waits its full length — the
// batch fills first — so coalescing costs idle-traffic latency only.
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
		timer := time.NewTimer(batchWindow)
	gather:
		for len(group) < batchMax {
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

// execute runs one micro-batch. Requests whose deadline already passed
// are answered at once, and a deck request the blob tier already holds
// is answered from it; every other unit runs through runUnit on the
// batch service's worker pool.
func (s *Server) execute(group []*pending) {
	// The flush failpoint models the dispatch path itself failing (a
	// worker-pool wedge, an OOM between collect and run): the whole
	// micro-batch answers 503 + Retry-After, and a resilient client
	// retries each unit elsewhere.
	if err := faultinject.Eval("server/batch/flush", group[0].name); err != nil {
		for _, p := range group {
			p.endQueue()
			p.fail(http.StatusServiceUnavailable,
				&Failure{Mode: batch.FailIO.String(), Message: "batch flush failed: " + err.Error()})
		}
		return
	}
	run := make([]*pending, 0, len(group))
	for _, p := range group {
		p.endQueue()
		if p.ctx.Err() != nil {
			p.fail(http.StatusGatewayTimeout,
				&Failure{Mode: batch.FailTimeout.String(), Message: "deadline exceeded while queued"})
			continue
		}
		// A deck compiled by any replica in the fleet serves here without
		// entering the pipeline, and without counting as a batch unit.
		if p.deckCacheable() {
			if body, ok := s.deckCacheGet(p); ok {
				p.finish(http.StatusOK, body, "")
				continue
			}
		}
		run = append(run, p)
	}
	s.svc.Each(len(run), func(i int) { s.runUnit(run[i]) })
}

// runUnit answers one unit through the batch service's per-unit
// envelope (timing, recover, deadline, retry, statistics) and publishes
// a successful deck's body into the blob tier.
func (s *Server) runUnit(p *pending) {
	resp, mode, err := batch.RunUnit(s.svc, p.ctx, p.name, func() (CompileResponse, error) {
		return p.mt.compile(p)
	}, func(r CompileResponse) (int, int) { return r.Instructions, r.CodeBytes })
	if err != nil {
		f := failureFor(err, mode)
		if mode == batch.FailBlocked {
			f.Derivation = explainUnit(p)
		}
		p.fail(StatusFor(mode), f)
		return
	}
	if p.explain {
		resp.Derivation = explainUnit(p)
	}
	body := encodeJSON(resp)
	if p.deckCacheable() {
		// Best-effort, and before the answer goes out so a repeat sent
		// on its arrival hits. A deck is cache, not a named artifact: no
		// manifest row, so `cogg cache gc` ages it out.
		_ = s.blobStore.Put(p.ctx, deckKey(p), body)
	}
	p.finish(http.StatusOK, body, "")
}

// compile runs one unit on a session borrowed from the pool, Pascal and
// raw IF alike; reused sessions keep the emission hot path
// allocation-free. The response is rendered in full before the session
// goes back, because a program translated on it aliases session
// storage. It runs inside the batch service's per-unit recover: a panic
// mid-translation unwinds past the put, so the poisoned session is
// simply never re-pooled.
func (t *modTarget) compile(p *pending) (CompileResponse, error) {
	ses, err := t.pool.get()
	if err != nil {
		return CompileResponse{}, err
	}
	resp, err := t.render(p.ctx, ses, p)
	t.pool.put(ses, err)
	return resp, err
}

// render translates one unit on ses and renders its response: the
// listing and counters, plus the IF view and the base64 card deck when
// the request asks for them.
func (t *modTarget) render(ctx context.Context, ses codegen.EngineSession, p *pending) (CompileResponse, error) {
	if p.lang == langIF {
		r := batch.Translate(ses, t.tgt.Machine, batch.IFUnit{Name: p.name, Text: p.source, Ctx: ctx})
		return CompileResponse{
			Name:         p.name,
			Listing:      r.Listing,
			Tokens:       r.Tokens,
			Reductions:   r.Reductions,
			Instructions: r.Instructions,
			CodeBytes:    r.CodeBytes,
		}, r.Err
	}
	c, err := t.tgt.CompileWith(ctx, ses, p.name, p.source, p.opt)
	if err != nil {
		return CompileResponse{}, err
	}
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
	if p.deck {
		var buf bytes.Buffer
		if err := c.Deck.WriteCards(&buf); err != nil {
			return CompileResponse{}, fmt.Errorf("rendering deck: %w", err)
		}
		resp.Deck = base64.StdEncoding.EncodeToString(buf.Bytes())
	}
	return resp, nil
}

// explainUnit re-runs one unit with derivation recording on a fresh,
// throwaway session, for diagnostics only: blocked-parse 422s attach
// their partial derivation, and explain:true requests their full one.
// Keeping recording off the pooled path preserves its zero-allocation
// steady state; a blocked parse is cheap to repeat (it stops at the
// block) and deterministic, so the re-run reproduces exactly the
// instructions the failing attempt emitted. It runs on a background
// context so the re-run adds no spans to the request's trace. The
// recover guard means a diagnostic re-run can never take down the
// executor goroutine.
func explainUnit(p *pending) (prov []codegen.ProvEntry) {
	defer func() { _ = recover() }()
	ses, err := p.mt.tgt.Gen.NewSession()
	if err != nil {
		return nil
	}
	ses.EnableProvenance(true)
	_, _ = p.mt.render(context.Background(), ses, p)
	return ses.Provenance()
}

// deckCacheable: only plain deck-producing Pascal successes are
// cached. Explain output is interpreter-provenance (cheap to re-derive,
// huge to store) and showIF is a debugging view; both stay uncached.
func (p *pending) deckCacheable() bool {
	return p.deck && !p.explain && !p.showIF && p.lang == langPascal
}

// deckKey derives a deck's blob key from everything the output depends
// on: the scheme tag (v2: the payload is the unit's response body as a
// miss encodes it, without trace_id), the module key (which already
// covers format version + spec name + spec source), the unit name and
// source, and the shaper option flags.
func deckKey(p *pending) string {
	o := p.opt
	flags := fmt.Sprintf("sr=%v sc=%v uc=%v cse=%v",
		o.StatementRecords, o.SubscriptChecks, o.UninitChecks, o.CSE != nil)
	return blob.DigestParts("deck/v2", p.mt.key, p.name, p.source, flags)
}

// deckCacheGet returns the stored body of p's deck. A miss falls
// through to compilation; so does an entry not naming p, once dropped.
func (s *Server) deckCacheGet(p *pending) ([]byte, bool) {
	key := deckKey(p)
	data, err := s.blobStore.Get(p.ctx, key)
	if err != nil {
		return nil, false
	}
	prefix := append(append([]byte(`{"name":`), jsonString(p.name)...), ',')
	if !bytes.HasPrefix(data, prefix) || !bytes.HasSuffix(data, []byte("}\n")) {
		_ = s.blobStore.Delete(p.ctx, key)
		return nil, false
	}
	return data, true
}
