package fleet

import (
	"context"
	"errors"
	"sync"
)

// errLeaderPanicked is what waiters get when the leader's fn panicked:
// the panic propagates on the leader's goroutine, and the waiters are
// released rather than left blocked on a call that will never finish.
var errLeaderPanicked = errors.New("fleet: shared call panicked")

// Group collapses concurrent calls for the same key into one: the first
// caller (the leader) runs fn, and callers arriving while it runs
// (waiters) share its result. The zero Group is ready to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	v    V
	err  error
	// leaderGone records that the leader's context had ended when fn
	// returned, so a failure may be the leader's cancellation rather
	// than an answer about the key.
	leaderGone bool
	dups       int // waiters that joined; lets tests sequence a join
}

// Do returns fn's result for key, running fn unless a call for key is
// already in flight, in which case it waits for that call instead.
// fn runs with the leader's ctx. shared reports whether v and err came
// from another caller's fn.
//
// Cancellation is per caller. A waiter returns ctx.Err() as soon as its
// own ctx ends; the leader carries on. A waiter whose ctx is still live
// never takes a failure from a leader whose ctx had ended: it runs fn
// again as the new leader, and later waiters join that call.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, err error, shared bool) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break // leave the lock held for the leader's registration
		}
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, ctx.Err(), false
		}
		if c.err != nil && c.leaderGone && ctx.Err() == nil {
			continue
		}
		return c.v, c.err, true
	}
	if g.calls == nil {
		g.calls = map[string]*call[V]{}
	}
	c := &call[V]{done: make(chan struct{}), err: errLeaderPanicked}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = fn(ctx)
	c.leaderGone = ctx.Err() != nil
	return c.v, c.err, false
}
