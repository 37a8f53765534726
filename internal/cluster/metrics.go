package cluster

import (
	"sync"

	"cogg/internal/fleet"
	"cogg/internal/obs"
)

// metrics are the policy engine's instruments. With a nil registry the
// counters still exist and accumulate (Snapshot reads them); they are
// simply not exposed.
type metrics struct {
	attempts  *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	failovers *obs.Counter
	degraded  *obs.Counter
	latency   *obs.Histogram

	mu         sync.Mutex
	reg        *obs.Registry
	perReplica map[string]*obs.Counter // replica|outcome -> counter
	perProbe   map[string]*obs.Counter // replica|outcome -> counter
}

func newMetrics(reg *obs.Registry, reps []*replica) *metrics {
	m := &metrics{
		reg:        reg,
		perReplica: map[string]*obs.Counter{},
		perProbe:   map[string]*obs.Counter{},
		attempts: reg.Counter("cluster_attempts_total",
			"Requests sent to replicas, hedges included.", ""),
		retries: reg.Counter("cluster_retries_total",
			"Policy-engine retries (backoff sleeps taken).", ""),
		hedges: reg.Counter("cluster_hedges_total",
			"Hedged duplicate requests fired past the latency threshold.", ""),
		hedgeWins: reg.Counter("cluster_hedge_wins_total",
			"Requests whose hedge answered before the primary.", ""),
		failovers: reg.Counter("cluster_failovers_total",
			"Requests answered by a replica other than the hash owner.", ""),
		degraded: reg.Counter("cluster_degraded_total",
			"Requests served by local in-process compilation because no replica could answer.", ""),
		latency: reg.Histogram("cluster_attempt_seconds",
			"Per-attempt latency against replicas, in seconds; buckets carry trace-ID exemplars.",
			"", obs.LatencyBuckets).EnableExemplars(),
	}
	for _, rep := range reps {
		rep := rep
		reg.GaugeFunc("cluster_breaker_state",
			"Replica circuit breaker state: 0 closed, 1 half-open, 2 open.",
			obs.L("replica", rep.name),
			func() float64 { return float64(rep.br.State()) })
		reg.GaugeFunc("cluster_replica_ready",
			"Last active health probe verdict: 1 ready, 0 not (or never probed).",
			obs.L("replica", rep.name),
			func() float64 {
				if _, ready := rep.isReady(); ready {
					return 1
				}
				return 0
			})
		// Breaker transitions by destination state, via the breaker's
		// hook so the counters see every flip including probe failures.
		trans := map[fleet.BreakerState]*obs.Counter{}
		for _, st := range []fleet.BreakerState{fleet.BreakerClosed, fleet.BreakerHalfOpen, fleet.BreakerOpen} {
			trans[st] = reg.Counter("cluster_breaker_transitions_total",
				"Circuit breaker state transitions by replica and destination state.",
				obs.L("replica", rep.name, "to", st.String()))
		}
		rep.br.OnTransition = func(to fleet.BreakerState) {
			if ctr, ok := trans[to]; ok {
				ctr.Inc()
			}
		}
	}
	return m
}

// replica returns the requests counter for one (replica, outcome):
// outcome is ok, retryable, transport, or canceled.
func (m *metrics) replica(rep *replica, outcome string) *obs.Counter {
	return m.lookup(m.perReplica, "cluster_requests_total",
		"Replica answers by outcome: ok (terminal), retryable (429/5xx), transport (error), canceled (hedge or caller).",
		rep, outcome)
}

// probe returns the probes counter for one (replica, outcome).
func (m *metrics) probe(rep *replica, outcome string) *obs.Counter {
	return m.lookup(m.perProbe, "cluster_probes_total",
		"Active health probes by replica and outcome.", rep, outcome)
}

func (m *metrics) lookup(cache map[string]*obs.Counter, name, help string, rep *replica, outcome string) *obs.Counter {
	key := rep.name + "|" + outcome
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := cache[key]; ok {
		return c
	}
	c := m.reg.Counter(name, help, obs.L("replica", rep.name, "outcome", outcome))
	cache[key] = c
	return c
}
