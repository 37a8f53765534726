package server

import (
	"sync/atomic"

	"cogg/internal/codegen"
)

// sessionPool keeps a bounded free list of reusable translation
// sessions for one generator, so steady-state requests reuse the
// session's buffers and the emission hot path stays allocation-free.
//
// Hygiene rule: a session whose translation failed — a blocked parse, a
// resource limit, or a panic recovered by the batch envelope — is never
// returned to the free list. Session.Generate does rewind its state at
// the start of every run, but a failed run may have left invariants the
// rewind was never audited against (a panic can interrupt a reduction
// mid-edit), and sessions are cheap enough that discarding the rare
// poisoned one is the simpler guarantee. A session abandoned mid-flight
// by a timeout is likewise never re-pooled: the put for it only happens
// after its goroutine finishes, and only if it finished cleanly.
type sessionPool struct {
	gen  *codegen.Generator
	free chan *codegen.Session

	// Counters for /varz: fresh sessions built, sessions reused from
	// the free list, and sessions discarded (failed, or pool full).
	created   atomic.Int64
	reused    atomic.Int64
	discarded atomic.Int64
}

func newSessionPool(gen *codegen.Generator, size int) *sessionPool {
	if size < 1 {
		size = 1
	}
	return &sessionPool{gen: gen, free: make(chan *codegen.Session, size)}
}

// get pops a pooled session or builds a fresh one.
func (p *sessionPool) get() (*codegen.Session, error) {
	select {
	case s := <-p.free:
		p.reused.Add(1)
		return s, nil
	default:
		p.created.Add(1)
		return p.gen.NewSession()
	}
}

// put returns a session after one translation. err is the translation's
// outcome: any failure discards the session (see the type comment); a
// clean session goes back on the free list unless the list is full.
func (p *sessionPool) put(s *codegen.Session, err error) {
	if err != nil {
		p.discarded.Add(1)
		return
	}
	select {
	case p.free <- s:
	default:
		p.discarded.Add(1)
	}
}

// PoolStats is the /varz snapshot of one spec's session pool.
type PoolStats struct {
	Free      int   `json:"free"`
	Created   int64 `json:"created"`
	Reused    int64 `json:"reused"`
	Discarded int64 `json:"discarded"`
}

func (p *sessionPool) stats() PoolStats {
	return PoolStats{
		Free:      len(p.free),
		Created:   p.created.Load(),
		Reused:    p.reused.Load(),
		Discarded: p.discarded.Load(),
	}
}
