// Package cluster is the resilience layer over a fleet of cogd
// replicas: a client (and a reverse-proxy front built on it, see Front)
// that keeps requests succeeding while individual replicas crash, hang,
// drain, or brown out.
//
// Routing is consistent hashing of spec keys across the replica set
// (see ring): every request for one specification prefers the same
// replica, keeping that replica's session pools and decoded table
// module hot for its specs. Around the route sits a policy engine:
//
//   - active health probing of every replica's /readyz, combined with
//     passive error tracking from live traffic;
//   - per-replica circuit breakers (closed/open/half-open with single
//     probe admission, see breaker);
//   - bounded retries with exponential backoff and full jitter,
//     honoring Retry-After from 429/503 answers;
//   - hedged duplicate requests fired when the first attempt outlives
//     an adaptive p99 latency threshold — first non-retryable answer
//     wins, the loser is canceled;
//   - graceful degradation: when the hash owner is down the request
//     fails over along the ring to any healthy replica, and when no
//     replica is admissible (or retries are exhausted) it falls back to
//     local in-process compilation, flagged "degraded":true in the
//     response body.
//
// The same engine serves three consumers: the cogdfront reverse proxy
// (cmd/cogdfront), coggload's multi-replica mode (-targets), and the Go
// Client used directly by the chaos suite — load tests and production
// clients share one retry implementation.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"cogg/internal/fleet"
	"cogg/internal/obs"
)

// Options configure a Client.
type Options struct {
	// Targets are the replica base URLs (http://host:port). At least
	// one is required.
	Targets []string

	// MaxRetries bounds how many times one request is re-sent after a
	// retryable outcome (transport error, 429, 5xx); 0 disables retry,
	// < 0 is treated as 0.
	MaxRetries int
	// AttemptTimeout bounds each individual attempt's wall time; 0
	// means no per-attempt bound beyond the caller's context. A hung
	// replica is only detectable through this.
	AttemptTimeout time.Duration
	// BaseBackoff is the first retry's backoff ceiling, doubling per
	// retry up to MaxBackoff; the actual sleep is uniformly random in
	// [0, ceiling] (full jitter), raised to the server's Retry-After
	// when one was sent. <= 0 means 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling; <= 0 means 1s.
	MaxBackoff time.Duration

	// HedgeAfter controls hedged duplicate requests: > 0 hedges after a
	// fixed delay, 0 (the default) hedges after the adaptive p99 of
	// recently observed latencies, and < 0 disables hedging.
	HedgeAfter time.Duration

	// BreakerThreshold is how many consecutive failures open a
	// replica's breaker; <= 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// half-opening; <= 0 means 1s.
	BreakerCooldown time.Duration

	// ProbeInterval is the active health probe period (GET /readyz per
	// replica); 0 means 250ms, < 0 disables active probing (admission
	// then relies on the breakers alone).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; <= 0 means 500ms.
	ProbeTimeout time.Duration

	// Local, when set, is the degradation tier: a lazily-built local
	// handler (an in-process cogd server.Handler()) that serves the
	// request when no replica can. Responses served this way have
	// "degraded":true injected into their JSON body.
	Local func() (http.Handler, error)

	// Registry receives the client's metrics (breaker-state gauges,
	// hedge/retry/failover counters); nil disables exposition but the
	// counters still accumulate for Snapshot.
	Registry *obs.Registry

	// HTTPClient overrides the transport; nil builds one with sensible
	// connection pooling.
	HTTPClient *http.Client
}

func (o *Options) fill() {
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 32,
		}}
	}
}

// replica is one target's serving state: its breaker plus the latest
// active-probe verdict.
type replica struct {
	idx   int
	url   string // base URL, no trailing slash
	name  string // host:port, the metrics label
	token string // order-independent sticky-routing token (URL hash)

	br *fleet.Breaker

	mu     sync.Mutex
	probed bool // at least one active probe has completed
	ready  bool // last active probe said ready
}

// admissible reports whether the policy engine may route a request
// here: the breaker admits it, and the last health probe (if any has
// run) said ready. An unprobed replica is given the benefit of the
// doubt — its breaker learns the truth on the first request.
func (r *replica) admissible() bool {
	r.mu.Lock()
	probed, ready := r.probed, r.ready
	r.mu.Unlock()
	if probed && !ready {
		return false
	}
	return r.br.Allow()
}

func (r *replica) setReady(ready bool) {
	r.mu.Lock()
	r.probed, r.ready = true, ready
	r.mu.Unlock()
}

func (r *replica) isReady() (probed, ready bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.probed, r.ready
}

// Client is the resilient fleet client. Build with New, stop the
// health probers with Close.
type Client struct {
	opts    Options
	hc      *http.Client
	reps    []*replica
	byToken map[string]*replica
	ring    *ring
	lat     *latWindow
	m       *metrics

	localMu  sync.Mutex
	localH   http.Handler
	localErr error

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Client over the target replicas and starts the health
// probers.
func New(opts Options) (*Client, error) {
	opts.fill()
	if len(opts.Targets) == 0 {
		return nil, errors.New("cluster: no targets")
	}
	c := &Client{
		opts:      opts,
		hc:        opts.HTTPClient,
		lat:       newLatWindow(256),
		stopProbe: make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, t := range opts.Targets {
		u := strings.TrimRight(strings.TrimSpace(t), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		name := u
		if p, err := url.Parse(u); err == nil && p.Host != "" {
			name = p.Host
		}
		rep := &replica{
			idx:  len(c.reps),
			url:  u,
			name: name,
			br:   fleet.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
		c.reps = append(c.reps, rep)
	}
	if len(c.reps) == 0 {
		return nil, errors.New("cluster: no usable targets")
	}
	c.byToken = assignTokens(c.reps)
	c.ring = newRing(c.reps)
	c.m = newMetrics(opts.Registry, c.reps)
	if opts.ProbeInterval > 0 {
		c.startProbers()
	}
	return c, nil
}

// Close stops the health probers. In-flight requests are unaffected.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.stopProbe) })
	c.probeWG.Wait()
}

// Replicas lists the replica names (host:port) in target order.
func (c *Client) Replicas() []string {
	names := make([]string, len(c.reps))
	for i, r := range c.reps {
		names[i] = r.name
	}
	return names
}

// assignTokens gives every replica a sticky-routing token: a sha256-hex
// prefix of its URL, the shortest length >= 8 that keeps all tokens
// distinct (lengthened in lockstep on the astronomically rare prefix
// collision). The token is a pure function of the URL — not of this
// client's target order — so a session branded by one front resolves
// on any front (or restart) configured with the same replica, however
// its -targets list is ordered. Tokens are hex-only, so the "local"
// degraded-tier prefix can never collide with one.
func assignTokens(reps []*replica) map[string]*replica {
	full := make([]string, len(reps))
	for i, rep := range reps {
		sum := sha256.Sum256([]byte(rep.url))
		full[i] = hex.EncodeToString(sum[:])
	}
	n := 8
	for ; n < len(full[0]); n += 4 {
		seen := make(map[string]bool, len(full))
		unique := true
		for _, h := range full {
			if seen[h[:n]] {
				unique = false
				break
			}
			seen[h[:n]] = true
		}
		if unique {
			break
		}
	}
	byToken := make(map[string]*replica, len(reps))
	for i, rep := range reps {
		rep.token = full[i][:n]
		byToken[rep.token] = rep
	}
	return byToken
}

// replicaByToken resolves a sticky-session token minted by any client
// over the same replica URLs (see assignTokens).
func (c *Client) replicaByToken(tok string) (*replica, bool) {
	rep, ok := c.byToken[tok]
	return rep, ok
}

// Owner names the replica that owns key on the hash ring (the first
// preference before any failover).
func (c *Client) Owner(key string) string {
	ord := c.ring.order(key)
	if len(ord) == 0 {
		return ""
	}
	return ord[0].name
}

// Result is one completed request: the answering replica's status and
// body, plus how hard the policy engine had to work for it.
type Result struct {
	Status int
	Header http.Header
	Body   []byte

	// Replica names who answered; "local" for the degraded tier.
	Replica string
	// ReplicaIdx is the answering replica's index in target order, or
	// -1 for the degraded tier.
	ReplicaIdx int
	// Attempts counts primary attempts (1 for a clean first try),
	// Hedges the duplicate requests fired alongside them.
	Attempts int
	Hedges   int
	// Degraded marks a response served by local in-process compilation
	// because no replica could answer.
	Degraded bool
}

// Do routes one POST of a JSON body to the fleet. key is the routing
// key — the spec name, so each spec's requests prefer the replica whose
// caches are hot for it. The returned Result may carry any HTTP status
// (422s and other terminal answers pass through untouched); the error
// is non-nil only when no answer could be produced at all.
func (c *Client) Do(ctx context.Context, path, key string, body []byte) (*Result, error) {
	return c.do(ctx, path, key, body, true)
}

// DoNoHedge routes like Do but never fires a hedged duplicate: the
// path for non-idempotent requests — opening a grammar session — where
// a duplicate that loses the race would leave an orphaned resource
// occupying the losing replica's bounded session table until its TTL.
func (c *Client) DoNoHedge(ctx context.Context, path, key string, body []byte) (*Result, error) {
	return c.do(ctx, path, key, body, false)
}

func (c *Client) do(ctx context.Context, path, key string, body []byte, hedge bool) (*Result, error) {
	// The whole policy decision — every retry, hedge, failover, and the
	// degraded fallback — is one span; each launched attempt is a child
	// under it (attemptHedged). Outcome annotations land here so the
	// stitched timeline explains *why* the routing did what it did.
	tr, parent := obs.FromContext(ctx)
	pspan := -1
	if tr != nil {
		pspan = tr.StartSpan("cluster:"+path, parent)
		defer tr.EndSpan(pspan)
		ctx = obs.ContextWith(ctx, tr, pspan)
	}
	order := c.ring.order(key)
	owner := order[0]
	var last attemptRes
	attempts, hedges := 0, 0
	for try := 0; try <= c.opts.MaxRetries; try++ {
		if tr != nil {
			// Read-only breaker peek (State, not Allow): record which
			// replicas the picker is about to route around.
			for _, r := range order {
				if r.br.State() == fleet.BreakerOpen {
					tr.Annotate(pspan, "breaker-open:"+r.name)
				}
			}
		}
		// Rotate the starting preference by try so a retry after a
		// failed owner attempt goes straight to the first fallback.
		primary := c.pick(order, try, nil)
		if primary == nil {
			break // nobody admissible: degrade
		}
		ar, h := c.attemptHedged(ctx, primary, order, path, body, hedge)
		attempts++
		hedges += h
		if ar.ctxErr != nil {
			return nil, ar.ctxErr
		}
		if !ar.retryable {
			ar.res.Attempts, ar.res.Hedges = attempts, hedges
			if ar.rep != owner {
				c.m.failovers.Inc()
				if tr != nil {
					tr.Annotate(pspan, "failover:"+ar.rep.name)
				}
			}
			return ar.res, nil
		}
		last = ar
		if try < c.opts.MaxRetries {
			c.m.retries.Inc()
			if tr != nil {
				tr.Annotate(pspan, "retry")
				if ar.retryAfter > 0 {
					tr.Annotate(pspan, "retry-after="+ar.retryAfter.String())
				}
			}
			if err := fleet.Sleep(ctx, fleet.BackoffDelay(try, c.opts.BaseBackoff, c.opts.MaxBackoff, ar.retryAfter)); err != nil {
				return nil, err
			}
		}
	}
	if c.opts.Local != nil {
		res, err := c.localDo(ctx, path, body)
		if err == nil {
			c.m.degraded.Inc()
			if tr != nil {
				tr.Annotate(pspan, "degraded")
			}
			res.Attempts, res.Hedges = attempts, hedges
			return res, nil
		}
		last.err = errors.Join(last.err, fmt.Errorf("local fallback: %w", err))
	}
	// Out of options. A terminal retryable answer (say every replica
	// said 429) is still an answer — pass it through so the caller sees
	// the fleet's backpressure rather than a synthetic error.
	if last.res != nil {
		last.res.Attempts, last.res.Hedges = attempts, hedges
		return last.res, nil
	}
	if last.err != nil {
		return nil, fmt.Errorf("cluster: every attempt failed: %w", last.err)
	}
	return nil, errors.New("cluster: no admissible replica")
}

// DoAt sends one request to a specific replica, no failover — the
// sticky path for stateful resources (grammar-walk sessions) that live
// on exactly one replica.
func (c *Client) DoAt(ctx context.Context, idx int, path string, body []byte) (*Result, error) {
	if idx < 0 || idx >= len(c.reps) {
		return nil, fmt.Errorf("cluster: no replica %d", idx)
	}
	rep := c.reps[idx]
	if !rep.admissible() {
		return nil, fmt.Errorf("cluster: replica %s is not admissible", rep.name)
	}
	tr, cur := obs.FromContext(ctx)
	span := -1
	if tr != nil {
		span = tr.StartSpan("attempt:"+rep.name, cur)
		tr.Annotate(span, "sticky")
		ctx = obs.ContextWith(ctx, tr, span)
	}
	ar := c.send(ctx, rep, path, body)
	if tr != nil {
		tr.Annotate(span, outcomeNote(ar))
		tr.EndSpan(span)
	}
	if ar.res == nil {
		if ar.ctxErr != nil {
			return nil, ar.ctxErr
		}
		return nil, ar.err
	}
	ar.res.Attempts = 1
	return ar.res, nil
}

// pick chooses the first admissible replica in preference order,
// starting at offset start (retries rotate it) and skipping skip (the
// hedge excludes the primary).
func (c *Client) pick(order []*replica, start int, skip *replica) *replica {
	n := len(order)
	for i := 0; i < n; i++ {
		r := order[(start+i)%n]
		if r == skip {
			continue
		}
		if r.admissible() {
			return r
		}
	}
	return nil
}

// ReplicaStatus is one replica's health snapshot for /varz.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Probed  bool   `json:"probed"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
}

// Snapshot is the client's /varz payload: replica health and the policy
// engine's counters.
type Snapshot struct {
	Replicas  []ReplicaStatus `json:"replicas"`
	Attempts  int64           `json:"attempts"`
	Retries   int64           `json:"retries"`
	Hedges    int64           `json:"hedges"`
	HedgeWins int64           `json:"hedge_wins"`
	Failovers int64           `json:"failovers"`
	Degraded  int64           `json:"degraded"`
}

// Snapshot reads the counters and replica states once.
func (c *Client) Snapshot() Snapshot {
	s := Snapshot{
		Attempts:  c.m.attempts.Value(),
		Retries:   c.m.retries.Value(),
		Hedges:    c.m.hedges.Value(),
		HedgeWins: c.m.hedgeWins.Value(),
		Failovers: c.m.failovers.Value(),
		Degraded:  c.m.degraded.Value(),
	}
	for _, r := range c.reps {
		probed, ready := r.isReady()
		s.Replicas = append(s.Replicas, ReplicaStatus{
			URL:     r.url,
			Probed:  probed,
			Ready:   ready,
			Breaker: r.br.State().String(),
		})
	}
	return s
}
