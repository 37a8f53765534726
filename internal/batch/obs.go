package batch

import (
	"cogg/internal/obs"
)

// RegisterMetrics bridges the service's counters into an obs.Registry
// as Prometheus-convention series, read from the existing atomics at
// exposition time — no second set of counters, no update-path cost.
// Registration is idempotent, so a server restarted against the same
// registry (or two services sharing one) is safe; when two services
// share a registry the last registered wins each series.
//
// Series registered (all counters unless noted):
//
//	cogg_cache_hits_total{tier="mem"|"disk"}   table-module cache hits
//	cogg_cache_misses_total                    modules built from source
//	cogg_cache_bad_entries_total               corrupt/stale disk entries
//	cogg_cache_disk_bytes_total                bytes written to the disk tier
//	cogg_units_compiled_total                  units that succeeded
//	cogg_units_failed_total{mode=...}          failures by taxonomy mode
//	cogg_unit_retries_total                    transient-fault retries
//	cogg_instructions_total                    instructions emitted
//	cogg_code_bytes_total                      code bytes laid out
//	cogg_table_build_seconds_total             SLR construction time
//	cogg_table_decode_seconds_total            disk-tier decode time
//	cogg_codegen_seconds_total                 summed per-unit wall time
//	cogg_batch_queue_depth (gauge)             units waiting or running
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &s.Stats
	hits := "Table-module cache hits by tier."
	reg.CounterFunc("cogg_cache_hits_total", hits, obs.L("tier", "mem"), st.MemHits.Load)
	reg.CounterFunc("cogg_cache_hits_total", hits, obs.L("tier", "disk"), st.DiskHits.Load)
	reg.CounterFunc("cogg_cache_misses_total",
		"Table modules built from specification source (cache misses).", "", st.Misses.Load)
	reg.CounterFunc("cogg_cache_bad_entries_total",
		"Disk cache entries discarded as corrupt or stale.", "", st.DiskBad.Load)
	reg.CounterFunc("cogg_cache_disk_bytes_total",
		"Bytes written to the on-disk table-module cache.", "", st.DiskBytes.Load)

	reg.CounterFunc("cogg_units_compiled_total",
		"Compilation units that completed successfully.", "", st.UnitsCompiled.Load)
	failed := "Compilation units failed, by failure mode."
	for _, m := range []struct {
		mode string
		v    func() int64
	}{
		{FailPanic.String(), st.FailedPanic.Load},
		{FailBlocked.String(), st.FailedBlocked.Load},
		{FailTimeout.String(), st.FailedTimeout.Load},
		{FailResource.String(), st.FailedResource.Load},
		{FailIO.String(), st.FailedIO.Load},
		{FailOther.String(), st.FailedOther.Load},
	} {
		reg.CounterFunc("cogg_units_failed_total", failed, obs.L("mode", m.mode), m.v)
	}
	reg.CounterFunc("cogg_unit_retries_total",
		"Transient-fault retries performed.", "", st.Retries.Load)
	reg.CounterFunc("cogg_instructions_total",
		"Instructions emitted by successful units.", "", st.Instructions.Load)
	reg.CounterFunc("cogg_code_bytes_total",
		"Code bytes laid out by successful units.", "", st.BytesEmitted.Load)

	nanos := func(v func() int64) func() float64 {
		return func() float64 { return float64(v()) / 1e9 }
	}
	reg.CounterFloatFunc("cogg_table_build_seconds_total",
		"Wall time spent in SLR table construction.", "", nanos(st.TableBuildNanos.Load))
	reg.CounterFloatFunc("cogg_table_decode_seconds_total",
		"Wall time spent decoding cached table modules.", "", nanos(st.DecodeNanos.Load))
	reg.CounterFloatFunc("cogg_codegen_seconds_total",
		"Per-unit compilation wall time, summed across units.", "", nanos(st.CodegenNanos.Load))

	reg.GaugeFunc("cogg_batch_queue_depth",
		"Units waiting for or running on the batch worker pool.", "",
		func() float64 { return float64(st.QueueDepth.Load()) })
}
