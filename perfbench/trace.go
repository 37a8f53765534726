package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cogg/internal/asm"
	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/cluster"
	"cogg/internal/codegen"
	"cogg/internal/driver"
	"cogg/internal/ifopt"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/obs"
	"cogg/internal/pascal"
	"cogg/internal/rt370"
	"cogg/internal/server"
	"cogg/internal/shaper"
	"cogg/specs"
)

// span is one timed call, recorded by the benchmark around a call into
// a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // shared by the spans of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends.
type spanRec struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanRec() *spanRec { return &spanRec{origin: time.Now()} }

func (r *spanRec) beginAt(req, parent int, name string, t time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(t.Sub(r.origin))})
	return id
}

// end closes a span and returns its duration.
func (r *spanRec) end(id int) time.Duration {
	t := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t
	return time.Duration(t - r.spans[id].Start)
}

// around records one span around f.
func (r *spanRec) around(req, parent int, name string, f func()) {
	id := r.beginAt(req, parent, name, time.Now())
	f()
	r.end(id)
}

// selfTimes returns each request's summed self time per span name: a
// span's duration minus the part its children cover.
func (r *spanRec) selfTimes() map[int]map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range r.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Req] = m
		}
		m[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func (r *spanRec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handlerLayers are the layers replayed in the order the daemon calls
// them on one request; server.self is the served handler time minus
// their sum.
var handlerLayers = []string{
	"server.request_decode", "blob.mem_get", "server.cache_decode",
	"pascal.parse", "shaper.shape", "ifopt.apply", "codegen.generate",
	"driver.finish", "asm.listing", "loader.cards", "blob.mem_put",
	"server.response_encode",
}

// countMetrics are the per-request work counts the replay takes, means
// over the replayed requests; 0 where the layer did no work.
var countMetrics = []string{
	"pascal.source_tokens", "shaper.if_tokens", "ifopt.if_tokens_saved",
	"codegen.reductions", "codegen.instructions", "codegen.evictions",
}

// counts are the daemon-side counters the traced run reads.
type counts struct {
	batches, batched, reused, created, rejected float64
	series                                      map[string]float64 // metricSeries, summed over replicas
}

// metricSeries are the /metrics series the traced run reads.
var metricSeries = []string{
	`cogg_blob_hits_total{backend="mem"}`, `cogg_blob_misses_total{backend="mem"}`,
	`cogg_blob_hits_total{backend="http"}`, `cogg_blob_misses_total{backend="http"}`,
	`cogd_http_request_seconds_sum{endpoint="/v1/compile"}`, `cogd_http_request_seconds_count{endpoint="/v1/compile"}`,
}

// scrape reads /varz and /metrics of every replica and sums them.
func (b *bench) scrape() (counts, error) {
	c := counts{series: map[string]float64{}}
	want := map[string]bool{}
	for _, name := range metricSeries {
		want[name] = true
	}
	for _, r := range b.fleet.reps {
		var v server.Varz
		if err := getJSON(r.url+"/varz", &v); err != nil {
			return c, err
		}
		c.batches += float64(v.Server.Batches)
		c.batched += float64(v.Server.BatchedUnits)
		c.rejected += float64(v.Server.RejectedQueueFull + v.Server.RejectedDraining)
		for _, p := range v.Pools {
			c.reused += float64(p.Reused)
			c.created += float64(p.Created)
		}
		resp, err := http.Get(r.url + "/metrics")
		if err != nil {
			return c, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || !want[line[:i]] {
				continue
			}
			n, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				resp.Body.Close()
				return c, fmt.Errorf("metrics line %q: %w", line, err)
			}
			c.series[line[:i]] += n
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return c, err
		}
	}
	return c, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queueWaitUS is the mean queue-wait span the daemon itself recorded
// over the traces still in its /v1/traces ring.
func (b *bench) queueWaitUS() (float64, error) {
	var sum float64
	n := 0
	for _, r := range b.fleet.reps {
		var tr server.TracesResponse
		if err := getJSON(r.url+"/v1/traces", &tr); err != nil {
			return 0, err
		}
		for _, t := range tr.Traces {
			for _, s := range t.Spans {
				if s.Name == "queue-wait" && s.DurNS >= 0 {
					sum += float64(s.DurNS) / 1e3
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// traced is the per-layer run. It alternates untraced and traced
// windows of served traffic (the p50 gap between them is the tracing
// overhead), reads the daemon's counters across them, then replays
// inputs from the same stream through each layer's public functions in
// the order the daemon calls them, and finally times the table-module
// load cold and peer-warmed. No end-to-end metric comes from this run.
func (b *bench) traced(res *result) ([]sample, error) {
	rec := newSpanRec()
	all := b.warmup()
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	var snap0 cluster.Snapshot
	if b.cl != nil {
		snap0 = b.cl.Snapshot()
	}
	dur := time.Duration(b.cfg.seconds * float64(time.Second) / 8)
	doName := "http.do"
	if b.cl != nil {
		doName = "cluster.do"
	}
	var plain, traced []sample
	for w := 0; w < 4; w++ {
		ss, _ := b.phase(dur, nil)
		plain = append(plain, ss...)
		ss, _ = b.phase(dur, func(req int) func() {
			id := rec.beginAt(1_000_000+len(traced)+req, -1, doName, time.Now())
			return func() { rec.end(id) }
		})
		traced = append(traced, ss...)
	}
	all = append(append(all, plain...), traced...)
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	queueWait, err := b.queueWaitUS()
	if err != nil {
		return nil, err
	}
	plainSt, tracedSt := summarize(plain, dur*4), summarize(traced, dur*4)

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	delta := func(i int) float64 { return after.series[metricSeries[i]] - before.series[metricSeries[i]] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set("server.units_per_batch", ratio(after.batched-before.batched, after.batches-before.batches), "units")
	set("server.session_reuse_ratio", ratio(after.reused-before.reused, after.reused-before.reused+after.created-before.created), "ratio")
	set("server.rejected", after.rejected-before.rejected, "count")
	set("server.queue_wait_us", queueWait, "us")
	memHits, memMiss, httpHits, httpMiss := delta(0), delta(1), delta(2), delta(3)
	// The daemon's own handler-latency histogram: the mean served
	// handler time under the workload's real concurrency.
	servedHandlerUS := ratio(delta(4), delta(5)) * 1e6
	set("server.served_handler_us", servedHandlerUS, "us")
	set("blob.hit_ratio.mem", ratio(memHits, memHits+memMiss), "ratio")
	set("blob.hit_ratio.http", ratio(httpHits, httpHits+httpMiss), "ratio")
	fmt.Fprintf(b.out, "blob reads over the served windows: mem %.0f hits / %.0f lookups, http %.0f hits / %.0f lookups\n",
		memHits, memHits+memMiss, httpHits, httpHits+httpMiss)

	lagP99 := 0.0
	if b.wl.rate > 0 {
		lagP99 = summarize(append(append([]sample(nil), plain...), traced...), dur*8).lagP99
	}
	set("loadgen.lag_p99_ms", lagP99, "ms")

	retries, failovers, shareMax := 0.0, 0.0, 0.0
	if b.cl != nil {
		s := b.cl.Snapshot()
		retries, failovers = float64(s.Retries-snap0.Retries), float64(s.Failovers-snap0.Failovers)
		per := map[int]int{}
		for _, s := range traced {
			if s.ok {
				per[s.replica]++
			}
		}
		for _, n := range per {
			shareMax = max(shareMax, float64(n)/float64(tracedSt.ok))
		}
	}
	set("cluster.retries", retries, "count")
	set("cluster.failovers", failovers, "count")
	set("cluster.replica_share_max", shareMax, "ratio")

	rp, err := b.replay(rec)
	if err != nil {
		return nil, err
	}
	all = append(all, rp.samples...)
	layerSum := 0.0
	for _, name := range handlerLayers {
		set(name+"_us", rp.layerUS[name], "us")
		layerSum += rp.layerUS[name]
	}
	set("server.handler_us", rp.handlerUS, "us")
	set("server.self_us", rp.handlerUS-layerSum, "us")
	for _, name := range countMetrics {
		set(name, rp.counts[name], "count")
	}
	set("codegen.allocs_per_op", rp.allocsPerOp, "allocs")
	set("blob.http_get_us", rp.httpGetUS, "us")
	set("blob.http_put_us", rp.httpPutUS, "us")
	doUS, hopUS := 0.0, 0.0
	if b.cl != nil {
		doUS = meanLatencyUS(traced)
		hopUS = doUS - servedHandlerUS
	}
	set("cluster.do_us", doUS, "us")
	set("cluster.hop_us", hopUS, "us")

	cold, warm, err := moduleLoads()
	if err != nil {
		return nil, err
	}
	set("batch.module_cold_ms", cold, "ms")
	set("batch.module_warm_ms", warm, "ms")

	servedUS := tracedSt.p50 * 1e3
	set("trace.served_p50_ms", tracedSt.p50, "ms")
	set("trace.untraced_p50_ms", plainSt.p50, "ms")
	set("trace.overhead_us", (tracedSt.p50-plainSt.p50)*1e3, "us")
	set("trace.unattributed_us", servedUS-rp.handlerUS, "us")
	set("trace.spans", float64(len(rec.spans)), "count")

	fmt.Fprintf(b.out, "served p50: traced %.4f ms (n=%d), untraced %.4f ms (n=%d)\n",
		tracedSt.p50, tracedSt.attempted, plainSt.p50, plainSt.attempted)
	fmt.Fprintf(b.out, "layer budget of the served p50 (means over %d replayed requests):\n", replayLimit)
	fmt.Fprintf(b.out, "  %-24s %9.1f us\n", "server.self", rp.handlerUS-layerSum)
	for _, name := range handlerLayers {
		if rp.layerUS[name] != 0 {
			fmt.Fprintf(b.out, "  %-24s %9.1f us\n", name, rp.layerUS[name])
		}
	}
	fmt.Fprintf(b.out, "  %-24s %9.1f us\n", "unattributed", servedUS-rp.handlerUS)
	fmt.Fprintf(b.out, "  %-24s %9.1f us\n", "= served p50", servedUS)

	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b.out, "%-28s %12.4f %s\n", name, m[name].Value, m[name].Unit)
		res.Metrics[name] = m[name]
	}
	if b.cfg.spansDir != "" {
		path := filepath.Join(b.cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
		if err := rec.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "%d spans written to %s\n", len(rec.spans), path)
	}
	return all, nil
}

func meanLatencyUS(ss []sample) float64 {
	var sum time.Duration
	n := 0
	for _, s := range ss {
		if s.ok {
			sum += s.lat
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// replayResult is the per-layer budget of the replayed requests.
type replayResult struct {
	samples              []sample // the handler calls, checked like served answers
	handlerUS            float64
	layerUS              map[string]float64
	counts               map[string]float64
	allocsPerOp          float64
	httpGetUS, httpPutUS float64
}

// replayer holds the layer objects the replay drives, configured the
// way the daemon configures its own.
type replayer struct {
	rec  *spanRec
	tgt  *driver.Target
	ses  codegen.EngineSession // reused, like the daemon's session pool
	mem  blob.Store
	peer blob.Store // a replica's artifact tier over HTTP; nil without peers
}

// replay sends replayLimit requests from the workload's stream through
// the owning replica's handler (httptest, no socket), then replays the
// same input through the layers, one span per call.
func (b *bench) replay(rec *spanRec) (*replayResult, error) {
	srv := b.fleet.reps[0].srv
	mod, err := srv.Service().Module(specName, specs.Amdahl470)
	if err != nil {
		return nil, err
	}
	cfg := rt370.Config()
	cfg.Metrics = codegen.NewMetrics(obs.NewRegistry(), specName)
	tgt, err := driver.NewTargetFromModule(mod, cfg)
	if err != nil {
		return nil, err
	}
	ses, err := tgt.Gen.NewEngineSession()
	if err != nil {
		return nil, err
	}
	rp := &replayer{rec: rec, tgt: tgt, ses: ses, mem: blob.NewMem(0, 0)}
	if len(b.fleet.reps) > 1 {
		rp.peer = blob.NewRemote(blob.RemoteOptions{Peers: []string{b.fleet.reps[1].url}})
	}
	schedule, done := b.plan.next()
	out := &replayResult{layerUS: map[string]float64{}, counts: map[string]float64{}}
	var handlerSum time.Duration
	var tokenStreams [][]ir.Token
	var httpGet, httpPut time.Duration
	httpN := 0
	for k := 0; k < replayLimit; k++ {
		idx := schedule(k)
		in := b.plan.inputs[idx]
		owner := b.fleet.reps[0]
		if b.cl != nil {
			owner = b.fleet.reps[b.ownerIdx(in.name)]
		}
		// A repeat workload's answers mostly come from the deck cache,
		// so its replay takes the hit path with the library path's
		// entry; the others compile.
		hit := b.cl != nil
		var entry []byte
		if hit {
			if entry, err = b.lib.deckEntry(in); err != nil {
				return nil, err
			}
			if err := rp.mem.Put(context.Background(), replayKey(in), entry); err != nil {
				return nil, err
			}
		}
		root := rec.beginAt(k, -1, "replay", time.Now())
		w := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(in.body))
		h := rec.beginAt(k, root, "server.handler", time.Now())
		owner.srv.Handler().ServeHTTP(w, hreq)
		hd := rec.end(h)
		handlerSum += hd
		s := sample{input: idx, lat: hd, replica: -1}
		if w.Code == http.StatusOK {
			s.ok = b.ans.note(idx, w.Body.Bytes())
		}
		out.samples = append(out.samples, s)

		c, toks, err := rp.request(k, root, in, hit)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", in.name, err)
		}
		rec.end(root)
		for name, v := range c {
			out.counts[name] += v
		}
		if toks != nil {
			tokenStreams = append(tokenStreams, toks)
		}

		if rp.peer != nil {
			// The write-through and warm-fetch of the same entry against
			// a peer replica's artifact API, as a deck miss on one
			// replica publishes and its peer later reads.
			if entry == nil {
				return nil, fmt.Errorf("no entry to publish")
			}
			key := blob.DigestParts("perfbench-replay-peer", in.name, in.source)
			t1 := time.Now()
			if err := rp.peer.Put(context.Background(), key, entry); err != nil {
				return nil, err
			}
			t2 := time.Now()
			if _, err := rp.peer.Get(context.Background(), key); err != nil {
				return nil, err
			}
			httpPut += t2.Sub(t1)
			httpGet += time.Since(t2)
			httpN++
		}
	}
	done(replayLimit)
	self := rec.selfTimes()
	for k := 0; k < replayLimit; k++ {
		for _, name := range handlerLayers {
			out.layerUS[name] += us(self[k][name])
		}
	}
	for name := range out.layerUS {
		out.layerUS[name] /= replayLimit
	}
	for name := range out.counts {
		out.counts[name] /= replayLimit
	}
	out.handlerUS = us(handlerSum) / replayLimit
	if httpN > 0 {
		out.httpGetUS, out.httpPutUS = us(httpGet)/float64(httpN), us(httpPut)/float64(httpN)
	}
	if out.allocsPerOp, err = allocsPerOp(tgt, tokenStreams); err != nil {
		return nil, err
	}
	return out, nil
}

// ownerIdx is the replica the fleet client routes key to first.
func (b *bench) ownerIdx(key string) int {
	owner := b.cl.Owner(key)
	for i, r := range b.fleet.reps {
		if strings.TrimPrefix(r.url, "http://") == owner {
			return i
		}
	}
	return 0
}

func replayKey(in input) string { return blob.DigestParts("perfbench-replay", in.name, in.source) }

// deckEntry renders the deck-cache entry the daemon stores for one
// Pascal input, from the library path.
func (lib *library) deckEntry(in input) ([]byte, error) {
	ref, c, err := lib.libraryPascal(in)
	if err != nil {
		return nil, err
	}
	return json.Marshal(newDeckEntry(server.CompileResponse{
		Listing: ref.listing, Tokens: len(c.Tokens), Reductions: c.Result.Reductions,
		Instructions: c.Prog.InstructionCount(), CodeBytes: ref.codeBytes, Deck: ref.deck,
	}))
}

// deckEntry mirrors the daemon's deck-cache payload.
type deckEntry struct {
	Listing      string `json:"listing"`
	Tokens       int    `json:"tokens"`
	Reductions   int    `json:"reductions"`
	Instructions int    `json:"instructions"`
	CodeBytes    int    `json:"code_bytes"`
	Deck         string `json:"deck_b64"`
}

func newDeckEntry(r server.CompileResponse) deckEntry {
	return deckEntry{Listing: r.Listing, Tokens: r.Tokens, Reductions: r.Reductions,
		Instructions: r.Instructions, CodeBytes: r.CodeBytes, Deck: r.Deck}
}

// request replays one request's layers under root and returns its
// per-layer work counts and the IF token stream it translated.
func (rp *replayer) request(k, root int, in input, hit bool) (map[string]float64, []ir.Token, error) {
	ctx := context.Background()
	rec := rp.rec
	around := func(name string, f func()) { rec.around(k, root, name, f) }
	counts := map[string]float64{}
	var req server.CompileRequest
	var err error
	around("server.request_decode", func() { err = json.NewDecoder(bytes.NewReader(in.body)).Decode(&req) })
	if err != nil {
		return nil, nil, err
	}
	var resp server.CompileResponse
	var toks []ir.Token
	m := rp.tgt.Machine
	switch {
	case req.Lang == "if":
		var prog *asm.Program
		var res *codegen.Result
		around("codegen.generate", func() {
			if toks, err = ir.ParseTokens(req.Source); err == nil {
				prog, res, err = rp.ses.GenerateCtx(ctx, req.Name, toks)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		around("driver.finish", func() { err = labels.Layout(prog, m) })
		if err != nil {
			return nil, nil, err
		}
		around("asm.listing", func() { resp.Listing = asm.Listing(prog, m) })
		counts["codegen.reductions"] = float64(res.Reductions)
		counts["codegen.instructions"] = float64(prog.InstructionCount())
		counts["codegen.evictions"] = float64(res.Evictions)
		resp.Name, resp.Tokens, resp.Reductions = req.Name, len(toks), res.Reductions
		resp.Instructions, resp.CodeBytes = prog.InstructionCount(), prog.CodeSize
	case hit:
		var data []byte
		around("blob.mem_get", func() { data, err = rp.mem.Get(ctx, replayKey(in)) })
		if err != nil {
			return nil, nil, err
		}
		var e deckEntry
		around("server.cache_decode", func() { err = json.Unmarshal(data, &e) })
		if err != nil {
			return nil, nil, err
		}
		resp = server.CompileResponse{Name: req.Name, Listing: e.Listing, Tokens: e.Tokens, Reductions: e.Reductions,
			Instructions: e.Instructions, CodeBytes: e.CodeBytes, Deck: e.Deck}
	default:
		around("blob.mem_get", func() { _, err = rp.mem.Get(ctx, replayKey(in)) })
		if err == nil {
			return nil, nil, fmt.Errorf("fresh input already cached")
		}
		var prog *pascal.Program
		around("pascal.parse", func() { prog, err = pascal.Parse(req.Name, req.Source) })
		if err != nil {
			return nil, nil, err
		}
		lexed, err := pascal.Lex(req.Name, req.Source)
		if err != nil {
			return nil, nil, err
		}
		counts["pascal.source_tokens"] = float64(len(lexed))
		opt := shapeOptions(false)
		shapeSpan := rec.beginAt(k, root, "shaper.shape", time.Now())
		if req.Options.CSE {
			// The optimizer runs inside Shape, so its spans hang under
			// the shape span.
			opt.CSE = func(stmts []*ir.Node, alloc func(size int64) int64) ([]*ir.Node, error) {
				before := nodes(stmts)
				var out []*ir.Node
				var err error
				rec.around(k, shapeSpan, "ifopt.apply", func() { out, err = ifopt.New().Apply(stmts, alloc) })
				counts["ifopt.if_tokens_saved"] += float64(before - nodes(out))
				return out, err
			}
		}
		shaped, err := shaper.Shape(prog, opt)
		if err == nil {
			toks = shaped.Linearize()
		}
		rec.end(shapeSpan)
		if err != nil {
			return nil, nil, err
		}
		counts["shaper.if_tokens"] = float64(len(toks))
		var code *asm.Program
		var res *codegen.Result
		around("codegen.generate", func() { code, res, err = rp.tgt.Translator().GenerateCtx(ctx, shaped.Name, toks) })
		if err != nil {
			return nil, nil, err
		}
		counts["codegen.reductions"] = float64(res.Reductions)
		counts["codegen.instructions"] = float64(code.InstructionCount())
		counts["codegen.evictions"] = float64(res.Evictions)
		var c *driver.Compiled
		around("driver.finish", func() { c, err = driver.Finish(code, shaped, m) })
		if err != nil {
			return nil, nil, err
		}
		around("asm.listing", func() { resp.Listing = c.Listing() })
		around("loader.cards", func() {
			var sb strings.Builder
			if err = c.Deck.WriteCards(&sb); err == nil {
				resp.Deck = base64.StdEncoding.EncodeToString([]byte(sb.String()))
			}
		})
		if err != nil {
			return nil, nil, err
		}
		resp.Name, resp.Tokens, resp.Reductions = req.Name, len(toks), res.Reductions
		resp.Instructions, resp.CodeBytes = code.InstructionCount(), code.CodeSize
		data, err := json.Marshal(newDeckEntry(resp))
		if err != nil {
			return nil, nil, err
		}
		around("blob.mem_put", func() { err = rp.mem.Put(ctx, replayKey(in), data) })
		if err != nil {
			return nil, nil, err
		}
	}
	var buf bytes.Buffer
	around("server.response_encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(resp)
	})
	return counts, toks, err
}

// nodes counts the IF tokens of a statement list.
func nodes(stmts []*ir.Node) int {
	n := 0
	for _, s := range stmts {
		n += s.Size()
	}
	return n
}

// allocsPerOp is heap allocations per translation on one reused session
// over the replayed token streams, after one warming pass.
func allocsPerOp(tgt *driver.Target, streams [][]ir.Token) (float64, error) {
	if len(streams) == 0 {
		return 0, nil // a deck-cache hit translates nothing
	}
	ses, err := tgt.Gen.NewSession()
	if err != nil {
		return 0, err
	}
	pass := func() error {
		for _, toks := range streams {
			if _, _, err := ses.Generate("allocs", toks); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const passes = 3
	for i := 0; i < passes; i++ {
		if err := pass(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(passes*len(streams)), nil
}

// moduleLoads times batch.Service.ModuleCtx on an empty store (SLR
// construction, then publishing the module into the store) and on a
// store whose only tier is a peer's artifact API already holding the
// module (fetch, verify, decode); medians of three.
func moduleLoads() (coldMS, warmMS float64, err error) {
	var cold, warm []float64
	for i := 0; i < 3; i++ {
		mem := blob.NewMem(0, 0)
		t0 := time.Now()
		if _, err := batch.New(batch.Options{Blob: mem}).ModuleCtx(context.Background(), specName, specs.Amdahl470); err != nil {
			return 0, 0, err
		}
		cold = append(cold, ms(time.Since(t0)))
		peer := httptest.NewServer(blob.ArtifactHandler(mem, 64<<20))
		svc := batch.New(batch.Options{Blob: blob.NewRemote(blob.RemoteOptions{Peers: []string{peer.URL}})})
		t0 = time.Now()
		_, err := svc.ModuleCtx(context.Background(), specName, specs.Amdahl470)
		warm = append(warm, ms(time.Since(t0)))
		peer.Close()
		if err != nil {
			return 0, 0, err
		}
		if svc.Stats.Misses.Load() != 0 {
			return 0, 0, fmt.Errorf("peer-warmed module load built tables instead of fetching")
		}
	}
	return median(cold), median(warm), nil
}
