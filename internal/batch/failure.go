package batch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime/debug"

	"cogg/internal/codegen"
	"cogg/internal/faultinject"
	"cogg/internal/fleet"
)

// FailureMode classifies why a compilation unit failed — the taxonomy
// the service's statistics and results expose so operators can tell a
// specification hole (blocked) from a poisoned input (panic), a stuck
// unit (timeout), a pathological one (resource), or infrastructure
// trouble (io).
type FailureMode int

const (
	FailNone     FailureMode = iota // the unit succeeded
	FailPanic                       // a panic was recovered; see PanicError for the stack
	FailBlocked                     // the parse blocked: the spec cannot translate the IF
	FailTimeout                     // the per-unit deadline expired
	FailResource                    // a translation resource limit (stack, code bytes, registers)
	FailIO                          // disk or decode trouble (cache I/O, corrupt artifacts)
	FailOther                       // everything else (front-end errors, bad specs, ...)
)

func (m FailureMode) String() string {
	switch m {
	case FailNone:
		return "none"
	case FailPanic:
		return "panic"
	case FailBlocked:
		return "blocked"
	case FailTimeout:
		return "timeout"
	case FailResource:
		return "resource-limit"
	case FailIO:
		return "io"
	case FailOther:
		return "other"
	}
	return fmt.Sprintf("mode#%d", int(m))
}

// PanicError is a panic recovered from one compilation unit: the
// recovered value plus the goroutine stack captured at the panic site.
// One poisoned unit yields one of these; the rest of the batch is
// unaffected.
type PanicError struct {
	Unit  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: unit %s panicked: %v\n%s", e.Unit, e.Value, e.Stack)
}

// Classify maps an error to its FailureMode.
func Classify(err error) FailureMode {
	if err == nil {
		return FailNone
	}
	var pe *PanicError
	var be *codegen.BlockedError
	var re *codegen.ResourceError
	var inj *faultinject.InjectedError
	switch {
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.As(err, &be):
		return FailBlocked
	case errors.As(err, &re):
		return FailResource
	case errors.As(err, &inj):
		if inj.Class == "io" {
			return FailIO
		}
		return FailOther
	case isIOError(err):
		return FailIO
	default:
		return FailOther
	}
}

// isIOError recognizes infrastructure faults: filesystem errors and
// truncated reads (a half-written or corrupt cache artifact).
func isIOError(err error) bool {
	var pathErr *fs.PathError
	return errors.As(err, &pathErr) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, fs.ErrPermission) ||
		errors.Is(err, fs.ErrNotExist)
}

// transient reports whether a failed attempt is worth retrying: only
// infrastructure faults are — a panic, a blocked parse, or a resource
// limit will fail identically every time.
func transient(err error) bool { return Classify(err) == FailIO }

// protected runs one unit's work on its own goroutine under recover,
// bounded by the service's per-unit deadline. The child goroutine owns
// the result until it is received, so an abandoned (timed-out) unit can
// never race the batch's result slice; its eventual result is dropped.
func protected[T any](s *Service, name string, f func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ctx := context.Background()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var zero T
				done <- outcome{zero, &PanicError{Unit: name, Value: p, Stack: debug.Stack()}}
			}
		}()
		if err := faultinject.Eval("batch/unit", name); err != nil {
			var zero T
			done <- outcome{zero, err}
			return
		}
		v, err := f()
		done <- outcome{v, err}
	}()
	select {
	case o := <-done:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, fmt.Errorf("batch: unit %s: %w after %v", name, ctx.Err(), s.timeout)
	}
}

// attempt runs protected work under the service's retry schedule (see
// retry); ctx is the unit's, so a canceled unit stops retrying at once.
func attempt[T any](ctx context.Context, s *Service, name string, f func() (T, error)) (T, error) {
	var v T
	err := s.retry(ctx, func() error {
		var err error
		v, err = protected(s, name, f)
		return err
	})
	return v, err
}

// retry runs op and retries it while it fails with a transient fault, up
// to the service's retry budget, doubling the wait from RetryBackoff.
// Local I/O sends no Retry-After and has no herd to spread, so the wait
// is plain doubling without jitter. A wait ends with ctx's error as soon
// as ctx ends. Deterministic failures return immediately.
func (s *Service) retry(ctx context.Context, op func() error) error {
	err := op()
	for try := 0; err != nil && try < s.retries && transient(err); try++ {
		s.Stats.Retries.Add(1)
		if werr := fleet.Sleep(ctx, s.backoff<<try); werr != nil {
			return fmt.Errorf("batch: retry abandoned: %w (last failure: %v)", werr, err)
		}
		err = op()
	}
	return err
}
