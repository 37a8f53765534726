// Package fleet holds the retry and coalescing primitives shared by
// every layer of the serving stack: the per-replica circuit breaker
// (Breaker), the jittered retry schedule (BackoffDelay), the
// context-aware wait (Sleep), and per-key call collapsing (Group).
// internal/cluster (compile routing) and internal/blob (artifact
// fetching) build on these, so a replica that trips its breaker for one
// kind of traffic is judged by the same rules for the other, and the
// two clients never drift apart in retry rhythm; internal/batch waits
// out its local retries and collapses its table builds here too.
package fleet

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes traffic, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits exactly one probe request; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// Breaker is a per-replica circuit breaker. It trips open after
// Threshold consecutive failures, rejects everything for Cooldown, then
// half-opens: one request is admitted as a probe, and its outcome
// either closes the breaker or slams it open for another cooldown.
//
// The breaker is deliberately per-replica, not per-(replica, spec): the
// failures it watches — connection refused, request timeouts, 5xx —
// are process-level symptoms, and one sick replica should shed all of
// its traffic at once rather than spec by spec.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	fails     int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool

	// OnTransition is the metrics hook, called (outside the fast path,
	// inside the lock) on every state change. Set it before the breaker
	// sees traffic.
	OnTransition func(to BreakerState)

	// Now is the clock, replaceable in tests. NewBreaker sets time.Now.
	Now func() time.Time
}

// NewBreaker builds a closed Breaker; threshold <= 0 means 5 and
// cooldown <= 0 means one second.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, Now: time.Now}
}

func (b *Breaker) transition(to BreakerState) {
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(to)
	}
}

// Allow reports whether a request may be sent. A true return from the
// half-open state consumes the single probe slot, so the caller must
// follow up with Success, Failure, or CancelProbe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.Now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a request that reached the replica and got a sane
// answer.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state != BreakerClosed {
		b.probing = false
		b.transition(BreakerClosed)
	}
}

// CancelProbe releases the half-open probe slot without judging the
// replica. A request admitted as the probe can end for reasons that
// say nothing about the replica's health — the hedge winner canceled
// it, or the caller's context ended. Without this release the slot
// would stay consumed forever and the breaker would sit half-open
// rejecting everything, permanently ejecting the replica.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Failure records a transport error, attempt timeout, or 5xx.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.openedAt = b.Now()
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probing = false
		b.openedAt = b.Now()
		b.transition(BreakerOpen)
	case BreakerOpen:
		// Late failures from requests admitted before the trip; the
		// breaker is already open, just keep the cooldown fresh enough.
	}
}

// State reports the breaker's position without consuming a probe slot.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
