package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cogg/internal/fleet"
	"cogg/internal/obs"
)

// attemptRes is one attempt's outcome as the policy engine sees it:
// either a Result (any HTTP status) or a transport error, classified
// retryable or terminal.
type attemptRes struct {
	res        *Result
	err        error
	rep        *replica
	retryable  bool
	retryAfter time.Duration // server's Retry-After, when sent
	ctxErr     error         // the caller's context ended; not the replica's fault
	span       int           // the attempt's span index in the caller's trace, -1 untraced
}

// outcomeNote classifies one attempt's result for its span annotation.
func outcomeNote(ar attemptRes) string {
	switch {
	case ar.ctxErr != nil:
		return "canceled"
	case ar.err != nil:
		return "transport-error"
	case ar.res != nil && ar.retryable:
		return fmt.Sprintf("retryable-%d", ar.res.Status)
	case ar.res != nil:
		return fmt.Sprintf("status-%d", ar.res.Status)
	default:
		return "no-answer"
	}
}

// retryableStatus reports whether an HTTP answer may be re-sent
// elsewhere: backpressure (429) and server-side trouble (5xx) are;
// everything else — success, blocked parses (422), resource limits
// (413), bad requests — is the request's own answer wherever it runs.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// send performs one HTTP attempt against one replica, feeding the
// breaker and metrics. A cancellation caused by the caller (hedge win,
// request context done) is counted against nobody.
func (c *Client) send(ctx context.Context, rep *replica, path string, body []byte) attemptRes {
	actx := ctx
	if c.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		rep.br.CancelProbe() // admission consumed a probe slot; free it
		return attemptRes{err: err, rep: rep, retryable: false}
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace across the process edge: the context carries
	// this attempt's span, so the replica's server spans parent under
	// exactly this attempt — hedged duplicates get distinct parents.
	obs.InjectContext(actx, req.Header)
	c.m.attempts.Inc()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context ended (or the hedge winner canceled
			// us): not evidence about the replica. Still release the
			// half-open probe slot this attempt may have consumed, or
			// the breaker would be stuck rejecting forever.
			rep.br.CancelProbe()
			c.m.replica(rep, "canceled").Inc()
			return attemptRes{err: err, rep: rep, retryable: true, ctxErr: ctx.Err()}
		}
		// Connection refused, reset, or the attempt timeout: the
		// replica is down or hanging. Breaker failure either way.
		rep.br.Failure()
		c.m.replica(rep, "transport").Inc()
		return attemptRes{err: err, rep: rep, retryable: true}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			rep.br.CancelProbe()
			c.m.replica(rep, "canceled").Inc()
			return attemptRes{err: err, rep: rep, retryable: true, ctxErr: ctx.Err()}
		}
		// A partial response — the replica died (or was injected to
		// die) mid-write. Transport class, retryable.
		rep.br.Failure()
		c.m.replica(rep, "transport").Inc()
		return attemptRes{err: err, rep: rep, retryable: true}
	}
	retryable := retryableStatus(resp.StatusCode)
	if resp.StatusCode >= 500 {
		rep.br.Failure()
	} else {
		// 2xx/3xx/4xx (including 429 backpressure): the replica is
		// alive and answering coherently.
		rep.br.Success()
	}
	if retryable {
		c.m.replica(rep, "retryable").Inc()
	} else {
		c.m.replica(rep, "ok").Inc()
		c.lat.observe(elapsed)
	}
	if tr, _ := obs.FromContext(ctx); tr != nil {
		c.m.latency.ObserveExemplar(elapsed.Seconds(), tr.ID())
	} else {
		c.m.latency.ObserveDuration(elapsed)
	}
	return attemptRes{
		res: &Result{
			Status:     resp.StatusCode,
			Header:     resp.Header.Clone(),
			Body:       data,
			Replica:    rep.name,
			ReplicaIdx: rep.idx,
		},
		rep:        rep,
		retryable:  retryable,
		retryAfter: fleet.ParseRetryAfter(resp.Header),
	}
}

// attemptHedged is one policy attempt: the primary request, plus —
// when hedge is set — a hedged duplicate to the next admissible
// replica if the primary outlives the hedge threshold. The first
// non-retryable answer wins and the loser is canceled; if both come
// back retryable the attempt as a whole is retryable. Returns the
// outcome and how many hedges fired.
func (c *Client) attemptHedged(ctx context.Context, primary *replica, order []*replica, path string, body []byte, hedge bool) (attemptRes, int) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each launched copy — primary or hedged duplicate — is its own
	// child span, opened here (synchronously, so it is in the tree even
	// if its goroutine is still in flight when the trace is exported)
	// and carried into send via the context so the wire headers name it
	// as the remote parent. spans collects the launched span indices;
	// when the race resolves, the winner and loser are annotated from
	// the resolving side so hedge-win/hedge-lose land before the
	// caller's snapshot, not whenever the canceled loser unwinds.
	tr, cur := obs.FromContext(ctx)
	var spans []int
	ch := make(chan attemptRes, 2)
	launch := func(rep *replica, kind string) {
		span := -1
		sctx := actx
		if tr != nil {
			span = tr.StartSpan("attempt:"+rep.name, cur)
			if kind != "" {
				tr.Annotate(span, kind)
			}
			sctx = obs.ContextWith(actx, tr, span)
		}
		spans = append(spans, span)
		go func() {
			ar := c.send(sctx, rep, path, body)
			ar.span = span
			if tr != nil {
				tr.Annotate(span, outcomeNote(ar))
				if ar.retryAfter > 0 {
					tr.Annotate(span, "retry-after="+ar.retryAfter.String())
				}
				tr.EndSpan(span)
			}
			ch <- ar
		}()
	}
	launch(primary, "")
	inflight := 1
	hedges := 0

	var hedgeC <-chan time.Time
	if hedge {
		if d := c.hedgeDelay(); d >= 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			hedgeC = timer.C
		}
	}

	var lastRetryable attemptRes
	for {
		select {
		case ar := <-ch:
			inflight--
			if ar.ctxErr != nil && ctx.Err() != nil {
				return ar, hedges
			}
			if !ar.retryable {
				if hedges > 0 && ar.rep != primary {
					c.m.hedgeWins.Inc()
				}
				if tr != nil && len(spans) > 1 {
					tr.Annotate(ar.span, "hedge-win")
					for _, s := range spans {
						if s != ar.span {
							tr.Annotate(s, "hedge-lose")
						}
					}
				}
				return ar, hedges
			}
			lastRetryable = ar
			if inflight > 0 {
				continue // the other copy may still win
			}
			return lastRetryable, hedges
		case <-hedgeC:
			hedgeC = nil
			h := c.pick(order, 1, primary)
			if h != nil {
				hedges++
				c.m.hedges.Inc()
				launch(h, "hedge")
				inflight++
			}
		case <-ctx.Done():
			return attemptRes{ctxErr: ctx.Err(), retryable: true, span: -1}, hedges
		}
	}
}

// hedgeDelay resolves the hedge threshold: fixed when configured,
// otherwise the adaptive p99 of recent terminal-answer latencies,
// floored so a microsecond-fast warm cache cannot make every request
// hedge. Negative disables.
func (c *Client) hedgeDelay() time.Duration {
	switch {
	case c.opts.HedgeAfter < 0:
		return -1
	case c.opts.HedgeAfter > 0:
		return c.opts.HedgeAfter
	}
	const (
		floor   = 2 * time.Millisecond
		coldDef = 25 * time.Millisecond
	)
	p := c.lat.p99()
	if p <= 0 {
		return coldDef
	}
	if p < floor {
		return floor
	}
	return p
}

// latWindow is a sliding window of recent latencies for the adaptive
// hedge threshold. Observation is O(1) under a mutex; the p99 sorts a
// copy on demand, cached briefly so a request burst does not re-sort
// per request.
type latWindow struct {
	mu       sync.Mutex
	buf      []time.Duration
	n        int // filled entries
	idx      int // next write position
	count    int // total observations
	cached   time.Duration
	cachedAt int // count when cached was computed
}

func newLatWindow(size int) *latWindow {
	return &latWindow{buf: make([]time.Duration, size)}
}

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.count++
	w.mu.Unlock()
}

// p99 returns the 99th percentile of the window, or 0 when empty.
func (w *latWindow) p99() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	if w.cachedAt > 0 && w.count-w.cachedAt < 16 {
		return w.cached
	}
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	w.cached = tmp[(len(tmp)-1)*99/100]
	w.cachedAt = w.count
	return w.cached
}
