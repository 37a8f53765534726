package batch

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stats counts what the batch service did: cache traffic, where the time
// went, and how much code came out. All counters are monotonic and
// updated atomically, so a Stats may be read (Snapshot, String, or a
// /metrics scrape) while compilations are in flight.
type Stats struct {
	// Cache traffic for table modules, by tier.
	MemHits   atomic.Int64 // served from the in-memory LRU
	DiskHits  atomic.Int64 // decoded from the on-disk cache
	Misses    atomic.Int64 // built from specification source
	DiskBad   atomic.Int64 // disk entries discarded (corrupt or stale format)
	DiskBytes atomic.Int64 // bytes written to the on-disk cache

	// Time accounting, in nanoseconds.
	TableBuildNanos atomic.Int64 // SLR construction (cache misses only)
	DecodeNanos     atomic.Int64 // table module decoding (disk hits)
	CodegenNanos    atomic.Int64 // summed across units (wall time per unit)

	// Allocation accounting, in heap allocations (mallocs). Table-build
	// allocs are always metered (construction is single-flighted and
	// rare); per-unit codegen allocs only under Options.MeasureAllocs,
	// since reading memstats per unit perturbs throughput, and the
	// process-wide counter makes concurrent units bleed into each other
	// — treat CodegenAllocs as an estimate unless Workers is 1.
	TableBuildAllocs atomic.Int64
	CodegenAllocs    atomic.Int64
	AllocsMeasured   atomic.Int64 // units whose allocations were metered

	// Unit throughput.
	UnitsCompiled atomic.Int64
	UnitsFailed   atomic.Int64
	Instructions  atomic.Int64 // instructions emitted by successful units
	BytesEmitted  atomic.Int64 // code bytes laid out by successful units

	// Failure taxonomy: UnitsFailed broken down by FailureMode, plus
	// fault-tolerance machinery counters.
	FailedPanic    atomic.Int64 // units that panicked (recovered)
	FailedBlocked  atomic.Int64 // units whose parse blocked
	FailedTimeout  atomic.Int64 // units past the per-unit deadline
	FailedResource atomic.Int64 // units over a translation resource limit
	FailedIO       atomic.Int64 // units lost to infrastructure faults
	FailedOther    atomic.Int64 // everything else
	Retries        atomic.Int64 // transient-fault retries performed
	DiskWriteErrs  atomic.Int64 // cache writes that failed after retry (degraded)
	OrphansSwept   atomic.Int64 // stale temp files reclaimed at startup

	// Queue pressure: units waiting or running right now, and the
	// high-water mark over the service's lifetime.
	QueueDepth    atomic.Int64
	QueueDepthMax atomic.Int64
}

// enqueue notes n units entering the pool and updates the high-water mark.
func (s *Stats) enqueue(n int) {
	d := s.QueueDepth.Add(int64(n))
	for {
		max := s.QueueDepthMax.Load()
		if d <= max || s.QueueDepthMax.CompareAndSwap(max, d) {
			return
		}
	}
}

func (s *Stats) dequeue() { s.QueueDepth.Add(-1) }

// noteFailure records one failed unit under its mode.
func (s *Stats) noteFailure(m FailureMode) {
	s.UnitsFailed.Add(1)
	switch m {
	case FailPanic:
		s.FailedPanic.Add(1)
	case FailBlocked:
		s.FailedBlocked.Add(1)
	case FailTimeout:
		s.FailedTimeout.Add(1)
	case FailResource:
		s.FailedResource.Add(1)
	case FailIO:
		s.FailedIO.Add(1)
	default:
		s.FailedOther.Add(1)
	}
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	MemHits, DiskHits, Misses, DiskBad int64
	DiskBytes                          int64
	TableBuild, Decode, Codegen        time.Duration
	UnitsCompiled, UnitsFailed         int64
	Instructions, BytesEmitted         int64
	QueueDepth, QueueDepthMax          int64

	// Per-phase unit costs, derived at snapshot time: nanoseconds and
	// heap allocations per table build and per compilation unit (the
	// alloc rates are zero unless metering was on; see Stats).
	TableBuildAllocs, CodegenAllocs   int64
	TableBuildNSPerOp, CodegenNSPerOp int64
	TableBuildAllocsPerOp             int64
	CodegenAllocsPerOp                int64

	FailedPanic, FailedBlocked, FailedTimeout int64
	FailedResource, FailedIO, FailedOther     int64
	Retries, DiskWriteErrs, OrphansSwept      int64
}

func perOp(total, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return total / n
}

// Snapshot reads every counter once.
func (s *Stats) Snapshot() Snapshot {
	units := s.UnitsCompiled.Load() + s.UnitsFailed.Load()
	measured := s.AllocsMeasured.Load()
	builds := s.Misses.Load()
	return Snapshot{
		TableBuildAllocs:      s.TableBuildAllocs.Load(),
		CodegenAllocs:         s.CodegenAllocs.Load(),
		TableBuildNSPerOp:     perOp(s.TableBuildNanos.Load(), builds),
		CodegenNSPerOp:        perOp(s.CodegenNanos.Load(), units),
		TableBuildAllocsPerOp: perOp(s.TableBuildAllocs.Load(), builds),
		CodegenAllocsPerOp:    perOp(s.CodegenAllocs.Load(), measured),

		MemHits:       s.MemHits.Load(),
		DiskHits:      s.DiskHits.Load(),
		Misses:        s.Misses.Load(),
		DiskBad:       s.DiskBad.Load(),
		DiskBytes:     s.DiskBytes.Load(),
		TableBuild:    time.Duration(s.TableBuildNanos.Load()),
		Decode:        time.Duration(s.DecodeNanos.Load()),
		Codegen:       time.Duration(s.CodegenNanos.Load()),
		UnitsCompiled: s.UnitsCompiled.Load(),
		UnitsFailed:   s.UnitsFailed.Load(),
		Instructions:  s.Instructions.Load(),
		BytesEmitted:  s.BytesEmitted.Load(),
		QueueDepth:    s.QueueDepth.Load(),
		QueueDepthMax: s.QueueDepthMax.Load(),

		FailedPanic:    s.FailedPanic.Load(),
		FailedBlocked:  s.FailedBlocked.Load(),
		FailedTimeout:  s.FailedTimeout.Load(),
		FailedResource: s.FailedResource.Load(),
		FailedIO:       s.FailedIO.Load(),
		FailedOther:    s.FailedOther.Load(),
		Retries:        s.Retries.Load(),
		DiskWriteErrs:  s.DiskWriteErrs.Load(),
		OrphansSwept:   s.OrphansSwept.Load(),
	}
}

// String renders the counters as the block printed by the -stats flag of
// cogg, ifcgen, and pascal370.
func (s *Stats) String() string {
	v := s.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "batch statistics\n")
	fmt.Fprintf(&b, "  table cache      %d mem hits, %d disk hits, %d misses, %d bad disk entries\n",
		v.MemHits, v.DiskHits, v.Misses, v.DiskBad)
	fmt.Fprintf(&b, "  disk writes      %d bytes\n", v.DiskBytes)
	fmt.Fprintf(&b, "  table build      %v (%d ns/op, %d allocs/op)\n",
		v.TableBuild, v.TableBuildNSPerOp, v.TableBuildAllocsPerOp)
	fmt.Fprintf(&b, "  module decode    %v\n", v.Decode)
	fmt.Fprintf(&b, "  code generation  %v across %d units (%d failed; %d ns/op, %d allocs/op)\n",
		v.Codegen, v.UnitsCompiled+v.UnitsFailed, v.UnitsFailed,
		v.CodegenNSPerOp, v.CodegenAllocsPerOp)
	fmt.Fprintf(&b, "  emitted          %d instructions, %d code bytes\n",
		v.Instructions, v.BytesEmitted)
	fmt.Fprintf(&b, "  queue depth      %d now, %d peak\n", v.QueueDepth, v.QueueDepthMax)
	if v.UnitsFailed > 0 {
		fmt.Fprintf(&b, "  failure modes    %d panic, %d blocked, %d timeout, %d resource-limit, %d io, %d other\n",
			v.FailedPanic, v.FailedBlocked, v.FailedTimeout, v.FailedResource, v.FailedIO, v.FailedOther)
	}
	if v.Retries > 0 || v.DiskWriteErrs > 0 || v.OrphansSwept > 0 {
		fmt.Fprintf(&b, "  fault tolerance  %d retries, %d degraded cache writes, %d orphans swept\n",
			v.Retries, v.DiskWriteErrs, v.OrphansSwept)
	}
	return b.String()
}
