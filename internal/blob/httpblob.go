package blob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cogg/internal/faultinject"
	"cogg/internal/fleet"
	"cogg/internal/obs"
)

// ArtifactPathPrefix is the cogd artifact API mount point; a blob key
// appended to it names one artifact: GET/PUT/HEAD /v1/artifacts/{key}.
const ArtifactPathPrefix = "/v1/artifacts/"

// ContentDigestHeader carries the payload's expected content digest on
// a PUT, so a body corrupted on the wire is rejected at the door
// instead of being stored self-consistently under the wrong bytes.
const ContentDigestHeader = "X-Blob-Content-Sha256"

// RemoteOptions configure a Remote.
type RemoteOptions struct {
	// Peers are base URLs of cogd replicas (or fronts) serving the
	// artifact API, tried in order on Get and first-available on Put.
	Peers []string
	// Client is the HTTP client; nil uses a pooled default.
	Client *http.Client
	// AttemptTimeout bounds one HTTP attempt; <= 0 means 2s — artifact
	// fetches race a ~11ms local rebuild, so a hanging peer must lose
	// quickly.
	AttemptTimeout time.Duration
	// Retries is how many extra attempts a retryable failure (transport
	// error, 429, 5xx) earns per peer; <= 0 means 1.
	Retries int
	// BaseBackoff/MaxBackoff shape the jittered retry schedule;
	// defaults 25ms/250ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold consecutive failures trip a peer's breaker open
	// for BreakerCooldown; defaults 3 and 2s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logf, when set, receives the warm-fetch lines ("blob: warm fetch
	// <key> from <peer> ..."); nil logs nothing.
	Logf func(format string, args ...any)
}

// Remote is the fleet backend: a Store over cogd peers speaking the
// artifact API. Reads singleflight per key (a cold replica's first
// requests all want the same module; one fetch serves them all), walk
// the peers in order behind per-peer circuit breakers, retry retryable
// failures on the cluster tier's jittered schedule honoring
// Retry-After, and re-verify every payload against its digest ETag —
// wire corruption is indistinguishable from disk corruption and gets
// the same answer. Writes are best-effort publications: the first
// admissible peer gets the blob, deduplicated by a HEAD whose ETag
// already matches.
type Remote struct {
	peers []*remotePeer
	hc    *http.Client
	opts  RemoteOptions
	gets  fleet.Group[[]byte]
}

type remotePeer struct {
	url string
	br  *fleet.Breaker
}

// NewRemote builds a Remote over the given peers.
func NewRemote(opts RemoteOptions) *Remote {
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 2 * time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 1
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 25 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 250 * time.Millisecond
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	r := &Remote{hc: hc, opts: opts}
	for _, u := range opts.Peers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		r.peers = append(r.peers, &remotePeer{
			url: u,
			br:  fleet.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		})
	}
	return r
}

// Peers reports the configured peer URLs.
func (r *Remote) Peers() []string {
	urls := make([]string, len(r.peers))
	for i, p := range r.peers {
		urls[i] = p.url
	}
	return urls
}

func (r *Remote) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Get fetches one blob from the fleet. Concurrent Gets for the same key
// collapse into one fetch (see fleet.Group for who waits for whom).
func (r *Remote) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := faultinject.Eval("blob/get", key); err != nil {
		return nil, err
	}
	payload, err, _ := r.gets.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		return r.getSlow(ctx, key)
	})
	return payload, err
}

// getSlow is the uncollapsed fetch: peers in order, retries within each.
func (r *Remote) getSlow(ctx context.Context, key string) ([]byte, error) {
	var firstErr error
	note := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	for _, p := range r.peers {
		payload, err := r.getFrom(ctx, p, key)
		if err == nil {
			return payload, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, ErrNotFound) {
			note(err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNotFound
}

// getFrom fetches from one peer with the retry schedule.
func (r *Remote) getFrom(ctx context.Context, p *remotePeer, key string) ([]byte, error) {
	var lastErr error
	for try := 0; try <= r.opts.Retries; try++ {
		if try > 0 {
			if err := fleet.Sleep(ctx, fleet.BackoffDelay(try-1, r.opts.BaseBackoff, r.opts.MaxBackoff, retryAfterOf(lastErr))); err != nil {
				return nil, err
			}
		}
		if !p.br.Allow() {
			return nil, fmt.Errorf("blob: peer %s: breaker open", p.url)
		}
		payload, err, retryable := r.attemptGet(ctx, p, key)
		if err == nil {
			return payload, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// readAnswer reads a peer's answer body, at most maxArtifactBytes of
// it. A declared length is checked before reading and sizes the buffer
// (net/http ends such a body at that length); an undeclared one is read
// through the cap.
func readAnswer(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxArtifactBytes {
		return nil, ErrTooLarge
	}
	if resp.ContentLength >= 0 {
		body := make([]byte, resp.ContentLength)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
	if err == nil && len(body) > maxArtifactBytes {
		return nil, ErrTooLarge
	}
	return body, err
}

// retryableError wraps a retryable failure carrying the server's
// Retry-After hint into the backoff computation.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryAfterOf(err error) time.Duration {
	var re *retryableError
	if errors.As(err, &re) {
		return re.retryAfter
	}
	return 0
}

// attemptGet is one GET against one peer, feeding its breaker.
func (r *Remote) attemptGet(ctx context.Context, p *remotePeer, key string) (payload []byte, err error, retryable bool) {
	actx, cancel := context.WithTimeout(ctx, r.opts.AttemptTimeout)
	defer cancel()
	// When the read happens inside a traced request (a deck cache miss
	// warm-fetching a peer), the peer fetch is a child span and the
	// peer's artifact handler — which records its own server fragment —
	// parents under it via the injected headers. Singleflight followers
	// share the leader's fetch, so only the leader's trace carries it.
	tr, parent := obs.FromContext(ctx)
	span := -1
	if tr != nil {
		span = tr.StartSpan("blob-get:"+p.url, parent)
		defer func() {
			switch {
			case err == nil:
				tr.Annotate(span, "warm-fetch")
			case errors.Is(err, ErrNotFound):
				tr.Annotate(span, "peer-miss")
			case retryable:
				tr.Annotate(span, "retryable-error")
			default:
				tr.Annotate(span, "error")
			}
			tr.EndSpan(span)
		}()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.url+ArtifactPathPrefix+key, nil)
	if err != nil {
		p.br.CancelProbe()
		return nil, err, false
	}
	if tr != nil {
		obs.Inject(req.Header, tr.ID(), tr.SpanID(span))
	}
	t0 := time.Now()
	resp, err := r.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			p.br.CancelProbe()
			return nil, ctx.Err(), false
		}
		p.br.Failure()
		return nil, fmt.Errorf("blob: peer %s: %w", p.url, err), true
	}
	body, err := readAnswer(resp)
	resp.Body.Close()
	if errors.Is(err, ErrTooLarge) {
		// The peer would send the same answer again: no retry.
		p.br.Failure()
		return nil, fmt.Errorf("blob: peer %s: %w", p.url, err), false
	}
	if err != nil {
		if ctx.Err() != nil {
			p.br.CancelProbe()
			return nil, ctx.Err(), false
		}
		p.br.Failure()
		return nil, fmt.Errorf("blob: peer %s: read body: %w", p.url, err), true
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		p.br.Success()
		want := etagDigest(resp.Header.Get("ETag"))
		if want == "" {
			// A peer that serves artifacts without a digest ETag gives us
			// nothing to verify against; refuse the bytes rather than
			// trust them unverified.
			return nil, fmt.Errorf("blob: peer %s: artifact answer carries no digest ETag", p.url), false
		}
		if verr := verifyPayload("http", key, want, body); verr != nil {
			// The corrupt copy is the peer's to quarantine on its own next
			// read; our job is to never hand it upward.
			return nil, verr, false
		}
		r.logf("blob: warm fetch %s from %s (%d bytes, %s)", short(key), p.url, len(body), time.Since(t0).Round(time.Microsecond))
		return body, nil, false
	case resp.StatusCode == http.StatusNotFound:
		p.br.Success() // a coherent miss is a healthy peer
		return nil, ErrNotFound, false
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		if resp.StatusCode >= 500 {
			p.br.Failure()
		} else {
			p.br.Success()
		}
		return nil, &retryableError{
			err:        fmt.Errorf("blob: peer %s: status %d", p.url, resp.StatusCode),
			retryAfter: fleet.ParseRetryAfter(resp.Header),
		}, true
	default:
		p.br.Success()
		return nil, fmt.Errorf("blob: peer %s: status %d", p.url, resp.StatusCode), false
	}
}

// Put publishes one blob to the first admissible peer, deduplicated by
// a HEAD: a peer already holding identical content (digest ETag match)
// costs one round trip and no body.
func (r *Remote) Put(ctx context.Context, key string, payload []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := faultinject.Eval("blob/put", key); err != nil {
		return err
	}
	sum := Sum(payload)
	var lastErr error
	for _, p := range r.peers {
		if !p.br.Allow() {
			lastErr = fmt.Errorf("blob: peer %s: breaker open", p.url)
			continue
		}
		err := r.putTo(ctx, p, key, sum, payload)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("blob: no peers configured")
	}
	return lastErr
}

func (r *Remote) putTo(ctx context.Context, p *remotePeer, key, sum string, payload []byte) (err error) {
	actx, cancel := context.WithTimeout(ctx, r.opts.AttemptTimeout)
	defer cancel()

	tr, parent := obs.FromContext(ctx)
	span := -1
	if tr != nil {
		span = tr.StartSpan("blob-put:"+p.url, parent)
		defer func() {
			if err != nil {
				tr.Annotate(span, "error")
			}
			tr.EndSpan(span)
		}()
	}

	// HEAD first: identical content already there means no body to send.
	head, err := http.NewRequestWithContext(actx, http.MethodHead, p.url+ArtifactPathPrefix+key, nil)
	if err != nil {
		p.br.CancelProbe()
		return err
	}
	if resp, err := r.hc.Do(head); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && etagDigest(resp.Header.Get("ETag")) == sum {
			p.br.Success()
			if tr != nil {
				tr.Annotate(span, "dedup")
			}
			return nil
		}
	}

	req, err := http.NewRequestWithContext(actx, http.MethodPut, p.url+ArtifactPathPrefix+key, bytes.NewReader(payload))
	if err != nil {
		p.br.CancelProbe()
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(ContentDigestHeader, sum)
	if tr != nil {
		obs.Inject(req.Header, tr.ID(), tr.SpanID(span))
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			p.br.CancelProbe()
			return ctx.Err()
		}
		p.br.Failure()
		return fmt.Errorf("blob: peer %s: %w", p.url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		p.br.Failure()
		return fmt.Errorf("blob: peer %s: put status %d", p.url, resp.StatusCode)
	}
	p.br.Success()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("blob: peer %s: put status %d", p.url, resp.StatusCode)
	}
	return nil
}

// Stat HEADs the peers in order.
func (r *Remote) Stat(ctx context.Context, key string) (Info, error) {
	if err := ctxErr(ctx); err != nil {
		return Info{}, err
	}
	var lastErr error
	for _, p := range r.peers {
		if !p.br.Allow() {
			lastErr = fmt.Errorf("blob: peer %s: breaker open", p.url)
			continue
		}
		actx, cancel := context.WithTimeout(ctx, r.opts.AttemptTimeout)
		req, err := http.NewRequestWithContext(actx, http.MethodHead, p.url+ArtifactPathPrefix+key, nil)
		if err != nil {
			cancel()
			p.br.CancelProbe()
			return Info{}, err
		}
		resp, err := r.hc.Do(req)
		cancel()
		if err != nil {
			p.br.Failure()
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			p.br.Success()
			return Info{Key: key, Content: etagDigest(resp.Header.Get("ETag")), Size: resp.ContentLength}, nil
		case http.StatusNotFound:
			p.br.Success()
			lastErr = ErrNotFound
		default:
			if resp.StatusCode >= 500 {
				p.br.Failure()
			} else {
				p.br.Success()
			}
			lastErr = fmt.Errorf("blob: peer %s: head status %d", p.url, resp.StatusCode)
		}
	}
	if lastErr == nil {
		lastErr = ErrNotFound
	}
	return Info{}, lastErr
}

// List is unsupported remotely: the artifact API is keyed access, and
// enumerating a fleet belongs to the index sidecar, not a peer walk.
func (r *Remote) List(ctx context.Context) ([]Info, error) {
	return nil, errors.New("blob: remote store does not enumerate")
}

// Delete is a local decision: a replica never reaches into its peers'
// stores. Dropping a remote tier's entry is a no-op by design.
func (r *Remote) Delete(ctx context.Context, key string) error { return nil }

// BreakerStates reports each peer's breaker position, for /varz-style
// snapshots and tests.
func (r *Remote) BreakerStates() map[string]string {
	states := make(map[string]string, len(r.peers))
	for _, p := range r.peers {
		states[p.url] = p.br.State().String()
	}
	return states
}

// etagDigest extracts the content digest from a digest ETag: strong or
// weak quoting stripped, anything that is not a digest rejected.
func etagDigest(etag string) string {
	etag = strings.TrimPrefix(etag, "W/")
	etag = strings.Trim(etag, `"`)
	if !ValidKey(etag) {
		return ""
	}
	return etag
}

// ETagFor renders a content digest as the quoted strong ETag the
// artifact API sends.
func ETagFor(content string) string { return `"` + content + `"` }
