package main

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cogg/internal/server"
)

var (
	libOnce sync.Once
	libVal  *library
	libErr  error
)

func testLibrary(t *testing.T) *library {
	t.Helper()
	libOnce.Do(func() { libVal, libErr = newLibrary() })
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libVal
}

func bodies(in []input) []string {
	out := make([]string, len(in))
	for i, x := range in {
		out[i] = string(x.body)
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	lib := testLibrary(t)
	a, err := lib.ifCorpus(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lib.ifCorpus(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bodies(a), bodies(b)) {
		t.Error("IF corpus differs between two runs with the same seed")
	}
	c, err := lib.ifCorpus(8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(bodies(a), bodies(c)) {
		t.Error("IF corpus is the same for seeds 7 and 8")
	}

	p1 := pascalPrograms(rand.New(rand.NewSource(7)), "p", 30)
	p2 := pascalPrograms(rand.New(rand.NewSource(7)), "p", 30)
	if !reflect.DeepEqual(bodies(p1), bodies(p2)) {
		t.Error("Pascal programs differ between two runs with the same seed")
	}
	if p3 := pascalPrograms(rand.New(rand.NewSource(8)), "p", 30); reflect.DeepEqual(bodies(p1), bodies(p3)) {
		t.Error("Pascal programs are the same for seeds 7 and 8")
	}
	seen := map[string]bool{}
	for _, in := range p1 {
		if seen[in.source] {
			t.Errorf("%s repeats an earlier program", in.name)
		}
		seen[in.source] = true
	}

	d1 := skewedDraw(rand.New(rand.NewSource(7)), 50, 1000)
	d2 := skewedDraw(rand.New(rand.NewSource(7)), 50, 1000)
	if !reflect.DeepEqual(d1, d2) {
		t.Error("skewed draw differs between two runs with the same seed")
	}
	hits := map[int]int{}
	for _, i := range d1 {
		hits[i]++
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if top < 100 {
		t.Errorf("most frequent program drawn %d of 1000 times; the draw is not skewed", top)
	}
}

func TestPercentilesCountFailuresAsMisses(t *testing.T) {
	var ss []sample
	for i := 0; i < 97; i++ {
		ss = append(ss, sample{ok: true, lat: time.Millisecond})
	}
	ss = append(ss, sample{ok: true, lat: 20 * time.Millisecond})
	// Two failures, answered fast: they still miss every limit.
	ss = append(ss, sample{lat: time.Microsecond}, sample{lat: time.Microsecond})
	st := summarize(ss, time.Second)
	if st.p50 != 1 {
		t.Errorf("p50 = %v ms, want 1", st.p50)
	}
	if !math.IsInf(st.p99, 1) {
		t.Errorf("p99 = %v ms, want +Inf: the two failures are the slowest 2%%", st.p99)
	}
	if st.within != 0.97 {
		t.Errorf("within_limit_ratio = %v, want 0.97", st.within)
	}
	if st.ok != 98 || st.throughput != 98 {
		t.Errorf("ok = %d, throughput = %v; want 98 and 98/s", st.ok, st.throughput)
	}
	if finite(st.p99) != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", finite(st.p99))
	}
}

func TestOutputCheckRejectsCorruption(t *testing.T) {
	lib := testLibrary(t)
	in := pascalPrograms(rand.New(rand.NewSource(3)), "c", 1)[0]
	ref, c, err := lib.libraryPascal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := executionCheck(in, c, lib.tgt.Machine); err != nil {
		t.Fatalf("execution check: %v", err)
	}
	good := server.CompileResponse{Listing: ref.listing, Deck: ref.deck, CodeBytes: ref.codeBytes}
	if err := compareServed(good, ref); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}

	deck, err := base64.StdEncoding.DecodeString(ref.deck)
	if err != nil {
		t.Fatal(err)
	}
	deck[len(deck)/2] ^= 0x01
	flipped := good
	flipped.Deck = base64.StdEncoding.EncodeToString(deck)
	if err := compareServed(flipped, ref); err == nil {
		t.Error("a deck with one flipped byte passed the check")
	}

	lines := strings.Split(ref.listing, "\n")
	lines[len(lines)/2] += " "
	changed := good
	changed.Listing = strings.Join(lines, "\n")
	if err := compareServed(changed, ref); err == nil {
		t.Error("a listing with one changed line passed the check")
	}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []named) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, units(spec.EndToEnd), units(spec.PerLayer)
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	wls, endToEnd, perLayer := declared(t)
	for _, wl := range wls {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: wl, seed: 1, seconds: 0.5, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", wl, trace, keys(got), keys(want))
			}
			if !trace && res.Metrics["latency_p50_ms"].Value <= 0 {
				t.Errorf("%s: no latency measured", wl)
			}
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
