// Package batch is the concurrent compilation service: many programs
// through one table-driven code generator, with the expensive artifact —
// the SLR driving tables built from a CoGG specification — produced
// once and reused everywhere.
//
// The paper's economics motivate the design: constructing the tables
// costs tens of milliseconds of automaton construction, while driving
// them over a program costs microseconds. The service therefore caches
// compiled table modules in tiers keyed by content hash of the
// specification (see Key):
//
//   - an in-memory LRU of decoded modules, and
//   - a blob store of tables.Encode output beneath it (internal/blob:
//     disk, memory, or a tiered stack reaching fleet peers), so a warm
//     start skips SLR construction entirely and pays only the decode —
//     and a cold replica can fetch a neighbor's already-built module
//     instead of constructing its own.
//
// Corrupt store entries are quarantined by the blob layer (every read
// re-verifies the payload's content digest), counted here, and
// regenerated; payloads that verify but fail to decode are discarded
// and regenerated.
//
// Compilation units fan out across a bounded worker pool with
// deterministic output ordering: results arrive indexed by input
// position regardless of completion order. The unit of parallelism is
// one program (or one IF stream for TranslateBatch). The shaper does
// not allow splitting below the program: procedures share the label
// space, the transfer vector, and the literal pool of their program, so
// a finer unit would race on all three. What the shaper does allow —
// and what the generator's immutability guarantees (see codegen.New) —
// is any number of units driving one decoded module concurrently.
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"cogg/internal/asm"
	"cogg/internal/blob"
	"cogg/internal/codegen"
	"cogg/internal/core"
	"cogg/internal/driver"
	"cogg/internal/fleet"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/obs"
	"cogg/internal/profiling"
	"cogg/internal/shaper"
	"cogg/internal/tables"
)

// memEntries caps the in-memory decoded-module LRU.
const memEntries = 8

// Options configure a Service.
type Options struct {
	// Workers bounds the compilation pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheDir is the on-disk table-module cache; empty disables the
	// disk tier (the decoded-module LRU still applies). When Blob is
	// also set, CacheDir only locates the index sidecar — the blobs go
	// wherever Blob puts them.
	CacheDir string
	// Blob, when set, is the artifact store beneath the decoded-module
	// LRU — typically a blob.Tiered layering memory, disk, and fleet
	// peers (see internal/blob). Nil falls back to a plain disk store
	// under CacheDir, or no store at all when both are empty.
	Blob blob.Store

	// UnitTimeout bounds each compilation unit's wall time; a unit past
	// the deadline fails with FailTimeout while the rest of the batch
	// proceeds. <= 0 disables the deadline.
	UnitTimeout time.Duration
	// Retries is how many times a unit or cache operation that failed
	// with a transient fault (FailIO: disk trouble, corrupt decode) is
	// retried with exponential backoff; <= 0 disables retry.
	Retries int
	// RetryBackoff is the first retry's delay, doubling per retry;
	// <= 0 means 10ms.
	RetryBackoff time.Duration

	// MeasureAllocs meters heap allocations per compilation unit into
	// Stats.CodegenAllocs. Metering reads process-wide memstats around
	// each unit, which costs time and — with more than one worker —
	// attributes concurrent units' allocations to each other, so it is
	// off by default; the -stats flags of ifcgen and pascal370 turn it
	// on.
	MeasureAllocs bool
}

// Service is a concurrent compilation service. It is safe for use from
// multiple goroutines; all counters accumulate in Stats.
type Service struct {
	Stats Stats

	workers  int
	store    blob.Store // encoded-module tier(s); nil disables
	indexDir string     // where the index sidecar lives; "" disables
	mem      *moduleLRU

	timeout time.Duration
	retries int
	backoff time.Duration
	measure bool

	// builds collapses concurrent requests for the same key into one
	// table construction (or one store read and decode).
	builds fleet.Group[*tables.Module]
}

// New builds a Service. The cache directory is created lazily on the
// first store.
func New(opts Options) *Service {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	s := &Service{
		workers:  w,
		store:    opts.Blob,
		indexDir: opts.CacheDir,
		mem:      newModuleLRU(memEntries),
		timeout:  opts.UnitTimeout,
		retries:  opts.Retries,
		backoff:  backoff,
		measure:  opts.MeasureAllocs,
	}
	if s.store == nil && opts.CacheDir != "" {
		// The classic configuration: a plain disk store under CacheDir.
		// blob.NewFS sweeps orphaned temp files at construction; fold the
		// count into this service's fault-tolerance stats.
		fs := blob.NewFS(opts.CacheDir)
		s.Stats.OrphansSwept.Add(fs.OrphansSwept())
		s.store = fs
	}
	return s
}

// Workers reports the pool bound.
func (s *Service) Workers() int { return s.workers }

// Module returns the table module for a specification, consulting the
// in-memory LRU, then the disk cache, and only then running the table
// constructor (and populating both tiers). Concurrent calls for the
// same specification share one construction.
func (s *Service) Module(specName, specSrc string) (*tables.Module, error) {
	return s.ModuleCtx(context.Background(), specName, specSrc)
}

// ModuleCtx is Module with a context: a trace attached via
// obs.ContextWith records a table-decode span when the module came from
// the disk tier and a table-build span when the SLR constructor ran (a
// memory-tier hit records neither — nothing was built).
func (s *Service) ModuleCtx(ctx context.Context, specName, specSrc string) (*tables.Module, error) {
	key := Key(specName, specSrc)
	if mod, ok := s.mem.get(key); ok {
		s.Stats.MemHits.Add(1)
		return mod, nil
	}

	mod, err, shared := s.builds.Do(ctx, key, func(ctx context.Context) (*tables.Module, error) {
		return s.moduleSlow(ctx, key, specName, specSrc)
	})
	if shared && err == nil {
		// Joining an in-flight construction is a memory-tier hit: the
		// module was served without building or decoding.
		s.Stats.MemHits.Add(1)
	}
	return mod, err
}

// moduleSlow is the path below the in-memory tier.
func (s *Service) moduleSlow(ctx context.Context, key, specName, specSrc string) (*tables.Module, error) {
	tr, parent := obs.FromContext(ctx)
	t0 := time.Now()
	mod, ok := s.loadStore(ctx, key)
	if ok {
		if tr != nil {
			tr.AddSpan("table-decode", parent, t0, time.Since(t0))
		}
		s.mem.put(key, mod)
		return mod, nil
	}
	start := time.Now()
	m0 := profiling.Mallocs()
	var cg *core.CodeGenerator
	var err error
	_, endBuild := obs.StartSpan(ctx, "table-build")
	profiling.Phase("tablebuild", func() {
		cg, err = core.Generate(specName, specSrc)
	})
	endBuild()
	if err != nil {
		return nil, err
	}
	s.Stats.TableBuildAllocs.Add(int64(profiling.Mallocs() - m0))
	s.Stats.TableBuildNanos.Add(int64(time.Since(start)))
	s.Stats.Misses.Add(1)
	mod = cg.Module()
	s.mem.put(key, mod)
	// A failed cache write is degraded, not fatal: the module is in
	// memory and every unit can proceed. Transient store faults retry
	// with backoff first; a write that still fails is only counted.
	if err := s.retry(ctx, func() error { return s.storeBlob(ctx, key, specName, mod) }); err != nil {
		s.Stats.DiskWriteErrs.Add(1)
	}
	return mod, nil
}

// Store publishes an already-constructed module into the decoded-module
// LRU and the blob store under the specification it was built from —
// the path cogg uses to warm the cache offline for later
// ifcgen/pascal370 runs.
func (s *Service) Store(specName, specSrc string, mod *tables.Module) error {
	key := Key(specName, specSrc)
	s.mem.put(key, mod)
	return s.storeBlob(context.Background(), key, specName, mod)
}

// Blob exposes the service's artifact store (nil when the service runs
// memory-only) — the handle the serving layer's deck cache shares.
func (s *Service) Blob() blob.Store { return s.store }

// Target returns a ready-to-use compiler target for a specification,
// built from the cached module when one exists.
func (s *Service) Target(specName, specSrc string, cfg codegen.Config) (*driver.Target, error) {
	return s.TargetCtx(context.Background(), specName, specSrc, cfg)
}

// TargetCtx is Target with a context (see ModuleCtx for the spans).
func (s *Service) TargetCtx(ctx context.Context, specName, specSrc string, cfg codegen.Config) (*driver.Target, error) {
	mod, err := s.ModuleCtx(ctx, specName, specSrc)
	if err != nil {
		return nil, err
	}
	return driver.NewTargetFromModule(mod, cfg)
}

// Unit is one program to compile: a named Pascal source plus its
// shaping options.
type Unit struct {
	Name   string
	Source string
	Opt    shaper.Options
	// Ctx, when non-nil, is threaded through the pipeline for this unit:
	// a trace attached via obs.ContextWith collects the unit's phase
	// spans, and its end cuts short a transient-fault retry wait (the
	// unit fails with the context's error rather than sleeping out its
	// schedule). A running attempt is bounded by the service's own
	// per-unit deadline, not by Ctx.
	Ctx context.Context
}

// ctxOf defaults a unit's optional context.
func ctxOf(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Result is the outcome of one unit, at the unit's input position.
// Mode classifies any failure; a panic recovered from the unit arrives
// as Err wrapping a *PanicError with the captured stack.
type Result struct {
	Name     string
	Compiled *driver.Compiled
	Err      error
	Mode     FailureMode
}

// CompileBatch compiles every unit through the target's generator,
// fanning out across the worker pool. The returned slice is parallel to
// units: results land at their input index whatever order the workers
// finish in, so batch output is deterministic.
//
// Units are isolated: each runs inside RunUnit's envelope, so one unit
// that panics, stalls, or hits a resource limit yields a structured
// per-unit error while every other unit completes normally. Every unit
// translates on a fresh session, so each Compiled may be kept.
func (s *Service) CompileBatch(tgt *driver.Target, units []Unit) []Result {
	results := make([]Result, len(units))
	s.Each(len(units), func(i int) {
		u := units[i]
		c, mode, err := RunUnit(s, u.Ctx, u.Name, func() (*driver.Compiled, error) {
			return tgt.CompileWith(ctxOf(u.Ctx), tgt.Gen, u.Name, u.Source, u.Opt)
		}, func(c *driver.Compiled) (int, int) { return c.Prog.InstructionCount(), c.Prog.CodeSize })
		results[i] = Result{Name: u.Name, Compiled: c, Err: err, Mode: mode}
	})
	return results
}

// IFUnit is one textual intermediate-form stream to translate — the
// spec-debugging granularity of ifcgen, and the finest unit the shaper
// permits when procedure bodies are shaped into independent streams.
type IFUnit struct {
	Name string
	Text string
	// Ctx carries an optional trace for this unit (see Unit.Ctx).
	Ctx context.Context
}

// IFResult is the outcome of one IF unit.
type IFResult struct {
	Name         string
	Listing      string
	Tokens       int
	Reductions   int
	Instructions int
	CodeBytes    int
	Err          error
	Mode         FailureMode
}

// TranslateBatch drives the code generator over each IF stream
// concurrently, returning laid-out listings in input order. Units are
// isolated the same way CompileBatch's are.
func (s *Service) TranslateBatch(tgt *driver.Target, units []IFUnit) []IFResult {
	results := make([]IFResult, len(units))
	s.Each(len(units), func(i int) {
		u := units[i]
		r, mode, err := RunUnit(s, u.Ctx, u.Name, func() (IFResult, error) {
			r := Translate(tgt.Gen, tgt.Machine, u)
			return r, r.Err
		}, func(r IFResult) (int, int) { return r.Instructions, r.CodeBytes })
		r.Name, r.Err, r.Mode = u.Name, err, mode
		results[i] = r
	})
	return results
}

// RunUnit runs one compilation unit inside the envelope that
// CompileBatch, TranslateBatch and the cogd server share. It times the
// unit into Stats.CodegenNanos, meters its allocations under
// Options.MeasureAllocs, and runs work under recover, the per-unit
// deadline and transient-fault retry, so work may run more than once
// and may be abandoned mid-flight (it must not write anything the
// caller reads). ctx may be nil; its end cuts short a retry wait. A
// successful unit adds the instruction and code-byte counts that size
// reports to Stats; a failed one is counted under its FailureMode.
func RunUnit[T any](s *Service, ctx context.Context, name string, work func() (T, error), size func(T) (instrs, codeBytes int)) (T, FailureMode, error) {
	start := time.Now()
	m0 := s.meterStart()
	var v T
	var err error
	profiling.Phase("codegen", func() {
		v, err = attempt(ctxOf(ctx), s, name, work)
	})
	s.meterEnd(m0)
	s.Stats.CodegenNanos.Add(int64(time.Since(start)))
	mode := Classify(err)
	if err != nil {
		s.Stats.noteFailure(mode)
		return v, mode, err
	}
	instrs, codeBytes := size(v)
	s.Stats.UnitsCompiled.Add(1)
	s.Stats.Instructions.Add(int64(instrs))
	s.Stats.BytesEmitted.Add(int64(codeBytes))
	return v, mode, nil
}

// Translate tokenizes, generates, and lays out one IF stream on ses — a
// *codegen.Generator (a fresh session per call) or a caller-owned
// *codegen.Session. The listing is rendered before Translate returns
// and nothing in the result aliases session storage, so a pooled
// session may be reused as soon as it does.
func Translate(ses codegen.EngineSession, m asm.Machine, u IFUnit) IFResult {
	toks, err := ir.ParseTokens(u.Text)
	if err != nil {
		return IFResult{Name: u.Name, Err: err}
	}
	prog, res, err := ses.GenerateCtx(ctxOf(u.Ctx), u.Name, toks)
	if err != nil {
		return IFResult{Name: u.Name, Err: err}
	}
	if err := labels.Layout(prog, m); err != nil {
		return IFResult{Name: u.Name, Err: err}
	}
	return IFResult{
		Name:         u.Name,
		Listing:      asm.Listing(prog, m),
		Tokens:       len(toks),
		Reductions:   res.Reductions,
		Instructions: prog.InstructionCount(),
		CodeBytes:    prog.CodeSize,
	}
}

// meterStart/meterEnd bracket one unit's allocation metering when
// Options.MeasureAllocs is on (see the option's caveats).
func (s *Service) meterStart() uint64 {
	if !s.measure {
		return 0
	}
	return profiling.Mallocs()
}

func (s *Service) meterEnd(m0 uint64) {
	if !s.measure {
		return
	}
	s.Stats.CodegenAllocs.Add(int64(profiling.Mallocs() - m0))
	s.Stats.AllocsMeasured.Add(1)
}

// Each runs job(i) for every i in [0, n) on the bounded worker pool and
// returns once all have run. Jobs normally wrap RunUnit.
func (s *Service) Each(n int, job func(i int)) {
	s.Stats.enqueue(n)
	workers := s.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				job(i)
				s.Stats.dequeue()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
