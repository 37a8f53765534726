package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/cluster"
)

// latencyLimit is the per-request limit within_limit_ratio counts
// against.
const latencyLimit = 10 * time.Millisecond

// sample is one attempted request.
type sample struct {
	input   int           // index of the distinct input sent
	start   time.Time     // when it was due (open loop) or sent (closed loop)
	lat     time.Duration // due (open loop) or send (closed loop) to last response byte
	lag     time.Duration // how late the open-loop generator sent it
	ok      bool          // HTTP 200 with a well-formed body
	replica int           // answering replica, -1 when unknown
}

// answer is one served response.
type answer struct {
	status  int
	body    []byte
	replica int
}

// sender delivers one request body and returns the daemon's answer.
// key is the routing key for a fleet.
type sender func(ctx context.Context, body []byte, key string) (answer, error)

// directSender posts to one replica with plain net/http.
func directSender(hc *http.Client, url string) sender {
	return func(ctx context.Context, body []byte, _ string) (answer, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
		if err != nil {
			return answer{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return answer{}, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return answer{}, err
		}
		return answer{status: resp.StatusCode, body: data, replica: 0}, nil
	}
}

// clusterSender routes through the fleet client's policy engine.
func clusterSender(cl *cluster.Client) sender {
	return func(ctx context.Context, body []byte, key string) (answer, error) {
		res, err := cl.Do(ctx, "/v1/compile", key, body)
		if err != nil {
			return answer{}, err
		}
		return answer{status: res.Status, body: res.Body, replica: res.ReplicaIdx}, nil
	}
}

// stem is a response body without its trailing trace_id, the only
// field that differs between two answers to the same input.
func stem(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"trace_id":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// answers keeps the first served body of every distinct input and
// compares every later answer to it, so every response of the run is
// checked: the first against the library path after the timed phase,
// the rest against the first.
type answers struct {
	mu        sync.Mutex
	first     map[int][]byte
	mismatch  int
	firstSeen []int // inputs in first-answer order
}

func newAnswers() *answers { return &answers{first: map[int][]byte{}} }

// note records one successful answer and reports whether it agrees
// with the earlier answers to the same input.
func (a *answers) note(in int, body []byte) bool {
	s := stem(body)
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, ok := a.first[in]
	if !ok {
		a.first[in] = append([]byte(nil), body...)
		a.firstSeen = append(a.firstSeen, in)
		return true
	}
	if !bytes.Equal(stem(prev), s) {
		a.mismatch++
		return false
	}
	return true
}

// traffic runs the requests of one measured phase.
type traffic struct {
	send    sender
	inputs  []input
	ans     *answers
	onStart func(req int) func() // optional tracing hook around each send
}

func (d *traffic) shoot(seq, in int, started time.Time) sample {
	s := sample{input: in, start: started, replica: -1}
	var end func()
	if d.onStart != nil {
		end = d.onStart(seq)
	}
	a, err := d.send(context.Background(), d.inputs[in].body, d.inputs[in].name)
	s.lat = time.Since(started)
	if end != nil {
		end()
	}
	if err != nil || a.status != http.StatusOK {
		return s
	}
	s.replica = a.replica
	s.ok = d.ans.note(in, a.body)
	return s
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one is answered, until dur has elapsed. schedule
// maps the request sequence number to an input index.
func (d *traffic) closedLoop(clients int, dur time.Duration, schedule func(seq int) int) []sample {
	var seq atomic.Int64
	per := make([][]sample, clients)
	t0 := time.Now()
	stop := t0.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(seq.Add(1) - 1)
				per[c] = append(per[c], d.shoot(i, schedule(i), time.Now()))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends request i at start + i/rate from clients goroutines,
// whoever is free first, for dur. Each request's latency counts from
// when it was due, so a stall charges every request it delayed.
func (d *traffic) openLoop(clients int, rate float64, dur time.Duration, schedule func(seq int) int) []sample {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(due)
				s := d.shoot(i, schedule(i), due)
				s.lag = lag
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// stats are the end-to-end figures of one measured phase.
type stats struct {
	attempted, ok int
	p50, p99      float64 // ms; +Inf when the percentile lands on a failure
	within        float64 // share of attempted answered OK within latencyLimit
	throughput    float64 // successful requests per second
	lagP99        float64 // ms
}

// summarize computes the phase's figures. A failed or refused request
// counts as missing every latency limit: it sorts above every success
// in the percentiles and never counts as within the limit.
func summarize(ss []sample, elapsed time.Duration) stats {
	st := stats{attempted: len(ss)}
	lats := make([]float64, len(ss))
	lags := make([]float64, len(ss))
	within := 0
	for i, s := range ss {
		lats[i] = math.Inf(1)
		lags[i] = ms(s.lag)
		if s.ok {
			st.ok++
			lats[i] = ms(s.lat)
			if s.lat <= latencyLimit {
				within++
			}
		}
	}
	sort.Float64s(lats)
	sort.Float64s(lags)
	st.p50 = percentile(lats, 50)
	st.p99 = percentile(lats, 99)
	st.lagP99 = percentile(lags, 99)
	if st.attempted > 0 {
		st.within = float64(within) / float64(st.attempted)
	}
	st.throughput = float64(st.ok) / elapsed.Seconds()
	return st
}

// windowed splits a phase that started at t0 and lasted dur into
// windows of equal length and reports the median of every figure across
// windows, so a stall that hits one window (another tenant's burst on a
// shared machine) moves the result by at most one rank. Latencies fall
// in the window their request started (or was due) in. A window's
// throughput is its completion rate: the successful answers completed
// in it, less one, over the time between its first and last completion
// (the last window also takes answers completed after the phase).
func windowed(ss []sample, t0 time.Time, dur time.Duration, windows int) stats {
	span := dur / time.Duration(windows)
	window := func(t time.Time) int { return max(0, min(int(t.Sub(t0)/span), windows-1)) }
	per := make([][]sample, windows)
	completed := make([]int, windows)
	first, last := make([]time.Time, windows), make([]time.Time, windows)
	for _, s := range ss {
		per[window(s.start)] = append(per[window(s.start)], s)
		if !s.ok {
			continue
		}
		end := s.start.Add(s.lat)
		w := window(end)
		if completed[w] == 0 || end.Before(first[w]) {
			first[w] = end
		}
		if end.After(last[w]) {
			last[w] = end
		}
		completed[w]++
	}
	var p50, p99, within, tput []float64
	st := stats{}
	for w := range per {
		ws := summarize(per[w], span)
		st.attempted += ws.attempted
		st.ok += ws.ok
		p50, p99 = append(p50, ws.p50), append(p99, ws.p99)
		within = append(within, ws.within)
		rate := 0.0
		if completed[w] > 1 {
			rate = float64(completed[w]-1) / last[w].Sub(first[w]).Seconds()
		}
		tput = append(tput, rate)
	}
	st.p50, st.p99, st.within, st.throughput = median(p50), median(p99), median(within), median(tput)
	return st
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (st stats) String() string {
	return fmt.Sprintf("%d attempted, %d ok, p50 %.3f ms, p99 %.3f ms", st.attempted, st.ok, st.p50, st.p99)
}
