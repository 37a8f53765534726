package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/obs"
	"cogg/internal/oracle"
)

// grammarTTL is how long an idle grammar-walk session survives before
// the sweep reclaims it; remote walkers that stop stepping do not pin
// cursors forever.
const grammarTTL = 5 * time.Minute

// grammarSessionCap bounds concurrently live grammar sessions; a full
// table answers 429, the same backpressure contract as the compile
// queue.
const grammarSessionCap = 256

// grammarSession is one remote grammar walk: a parse-stack cursor over
// a spec's tables, addressed by an opaque id. Cursors are not safe for
// concurrent use, so each session carries its own lock.
type grammarSession struct {
	mu       sync.Mutex
	id       string
	spec     string
	oracle   *oracle.Oracle
	cur      *oracle.Cursor
	lastUsed time.Time
}

// grammarTable is the bounded, TTL-swept session store. Sweeping
// happens two ways: inline on create/get (so a busy table never grows
// stale entries), and from the server's background sweeper goroutine
// (so an idle table's abandoned cursors are reclaimed without waiting
// for traffic).
type grammarTable struct {
	mu       sync.Mutex
	sessions map[string]*grammarSession
	nextID   int64
	ttl      time.Duration // <= 0 falls back to grammarTTL

	created atomic.Int64
	expired atomic.Int64
	evicted atomic.Int64
	closed  atomic.Int64
	steps   atomic.Int64
}

func (t *grammarTable) ttlOrDefault() time.Duration {
	if t.ttl > 0 {
		return t.ttl
	}
	return grammarTTL
}

// sweep drops sessions idle past the TTL. Callers hold t.mu.
func (t *grammarTable) sweepLocked(now time.Time) {
	ttl := t.ttlOrDefault()
	for id, gs := range t.sessions {
		if now.Sub(gs.lastUsed) > ttl {
			delete(t.sessions, id)
			t.expired.Add(1)
		}
	}
}

// sweep is the background sweeper's entry: one full pass under the lock.
func (t *grammarTable) sweep() {
	t.mu.Lock()
	t.sweepLocked(time.Now())
	t.mu.Unlock()
}

// create registers a new session, evicting the least recently used one
// when the table is at capacity and nothing expired. ok=false means
// the table is full of fresh sessions.
func (t *grammarTable) create(spec string, o *oracle.Oracle) (*grammarSession, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sessions == nil {
		t.sessions = map[string]*grammarSession{}
	}
	now := time.Now()
	t.sweepLocked(now)
	if len(t.sessions) >= grammarSessionCap {
		var oldest *grammarSession
		for _, gs := range t.sessions {
			if oldest == nil || gs.lastUsed.Before(oldest.lastUsed) {
				oldest = gs
			}
		}
		// Only a session idle for a respectable fraction of the TTL is
		// evictable; otherwise the caller gets backpressure.
		if oldest == nil || now.Sub(oldest.lastUsed) < t.ttlOrDefault()/10 {
			return nil, false
		}
		delete(t.sessions, oldest.id)
		t.evicted.Add(1)
	}
	t.nextID++
	gs := &grammarSession{
		id:       fmt.Sprintf("g%d-%d", now.UnixNano(), t.nextID),
		spec:     spec,
		oracle:   o,
		cur:      o.NewCursor(),
		lastUsed: now,
	}
	t.sessions[gs.id] = gs
	t.created.Add(1)
	return gs, true
}

// get touches and returns a session.
func (t *grammarTable) get(id string) (*grammarSession, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(time.Now())
	gs, ok := t.sessions[id]
	if ok {
		gs.lastUsed = time.Now()
	}
	return gs, ok
}

// remove drops a finished session.
func (t *grammarTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[id]; ok {
		delete(t.sessions, id)
		t.closed.Add(1)
	}
}

func (t *grammarTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// grammarSweeper periodically reclaims idle grammar sessions until the
// server stops. It shares s.stop with the micro-batch collector and is
// waited on by Close, so a closed server leaves no sweeper goroutine
// behind.
func (s *Server) grammarSweeper() {
	defer close(s.sweeperDone)
	every := s.grammar.ttlOrDefault() / 10
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.grammar.sweep()
		case <-s.stop:
			return
		}
	}
}

// registerGrammarMetrics bridges the grammar-session counters into the
// daemon registry.
func (s *Server) registerGrammarMetrics() {
	events := "Grammar-walk sessions by lifecycle event."
	t := &s.grammar
	for _, e := range []struct {
		event string
		f     func() int64
	}{
		{"created", t.created.Load},
		{"closed", t.closed.Load},
		{"expired", t.expired.Load},
		{"evicted", t.evicted.Load},
	} {
		s.reg.CounterFunc("cogd_grammar_sessions_total", events,
			obs.L("event", e.event), e.f)
	}
	s.reg.CounterFunc("cogd_grammar_steps_total",
		"Grammar-walk cursor advances served.", "", t.steps.Load)
	s.reg.GaugeFunc("cogd_grammar_sessions",
		"Live grammar-walk sessions.", "",
		func() float64 { return float64(t.size()) })
}

// legalNames renders the cursor's legal-next set as symbol names in
// symbol-id order, "$end" last — the same order the blocked-parse
// diagnostics use, so clients can diff the two directly.
func legalNames(o *oracle.Oracle, cur *oracle.Cursor) []string {
	g := o.Grammar()
	legal := cur.Legal(nil)
	names := make([]string, 0, 16)
	for sym := 0; sym < o.Universe(); sym++ {
		if !legal.Has(sym) {
			continue
		}
		if sym == o.EOF() {
			continue // appended last
		}
		names = append(names, g.SymName(sym))
	}
	if legal.Has(o.EOF()) {
		names = append(names, "$end")
	}
	return names
}

// handleGrammarSession answers POST /v1/grammar/session: open a
// grammar-walk cursor over a spec's tables and return the legal
// opening symbols.
func (s *Server) handleGrammarSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.gate.enter() {
		s.stats.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.gate.exit()

	t0 := time.Now()
	tr, reqSpan := s.startTrace(r, "grammar-session")
	w.Header().Set("X-Trace-Id", tr.ID())
	failMode := ""
	defer func() { s.finishTrace(tr, reqSpan, failMode, time.Since(t0)) }()

	var req GrammarSessionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	mt, err := s.target(req.Spec)
	if err != nil {
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	gs, ok := s.grammar.create(mt.specName, mt.oracle)
	if !ok {
		failMode = "queue-full"
		writeError(w, http.StatusTooManyRequests, "grammar session table is full")
		return
	}
	writeJSON(w, http.StatusOK, GrammarSessionResponse{
		SessionID: gs.id,
		Spec:      mt.specName,
		State:     gs.cur.State(),
		Depth:     gs.cur.Depth(),
		Legal:     legalNames(mt.oracle, gs.cur),
		TraceID:   tr.ID(),
	})
}

// handleGrammarNext answers POST /v1/grammar/next: advance a session's
// cursor on one symbol ("$end" accepts and closes the session) and
// return the fired productions plus the new legal-next set.
func (s *Server) handleGrammarNext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.gate.enter() {
		s.stats.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.gate.exit()

	t0 := time.Now()
	tr, reqSpan := s.startTrace(r, "grammar-next")
	w.Header().Set("X-Trace-Id", tr.ID())
	failMode := ""
	defer func() { s.finishTrace(tr, reqSpan, failMode, time.Since(t0)) }()

	var req GrammarNextRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		failMode = "bad-request"
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	gs, ok := s.grammar.get(req.SessionID)
	if !ok {
		failMode = "not-found"
		writeError(w, http.StatusNotFound, "unknown or expired grammar session")
		return
	}

	gs.mu.Lock()
	defer gs.mu.Unlock()
	o, g := gs.oracle, gs.oracle.Grammar()
	sym := o.EOF()
	if req.Symbol != "$end" {
		sm, found := g.Lookup(req.Symbol)
		if !found {
			failMode = "bad-request"
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("symbol %q is not declared in %s", req.Symbol, gs.spec))
			return
		}
		sym = sm.ID
	}
	step, err := gs.cur.Advance(sym)
	if err != nil {
		// The symbol is declared but illegal here — the grammar's 422,
		// with the legal set in the body so walkers can recover.
		failMode = "blocked"
		writeJSON(w, http.StatusUnprocessableEntity, GrammarNextResponse{
			SessionID: gs.id,
			State:     gs.cur.State(),
			Depth:     gs.cur.Depth(),
			Legal:     legalNames(o, gs.cur),
			Error:     err.Error(),
			TraceID:   tr.ID(),
		})
		return
	}
	s.grammar.steps.Add(1)
	resp := GrammarNextResponse{
		SessionID: gs.id,
		State:     gs.cur.State(),
		Depth:     gs.cur.Depth(),
		Accepted:  step.Accepted,
		TraceID:   tr.ID(),
	}
	for _, pi := range step.Reduced {
		resp.Reduced = append(resp.Reduced, g.ProdString(g.Prods[pi]))
	}
	if step.Accepted {
		s.grammar.remove(gs.id)
	} else {
		resp.Legal = legalNames(o, gs.cur)
	}
	writeJSON(w, http.StatusOK, resp)
}
