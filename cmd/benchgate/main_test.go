package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cogg
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCodeGenerationRate-8   	   45090	     26094 ns/op	   6751349 IF_tokens/s	   2263625 instructions/s	       0 B/op	       0 allocs/op
BenchmarkTableConstruction-8    	      58	  19726103 ns/op	 8302781 B/op	   46062 allocs/op
BenchmarkBatchThroughput/cache=warm/workers=4-8 	     100	  11894916 ns/op	        13.45 table_load_ms	      1345 units/s
PASS
ok  	cogg	10.5s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	cg := got["BenchmarkCodeGenerationRate"]
	if cg.NsPerOp != 26094 || cg.AllocsPerOp != 0 {
		t.Errorf("CodeGenerationRate = %+v", cg)
	}
	if cg.Metrics["IF_tokens/s"] != 6751349 {
		t.Errorf("IF_tokens/s metric = %v", cg.Metrics["IF_tokens/s"])
	}
	tc := got["BenchmarkTableConstruction"]
	if tc.AllocsPerOp != 46062 || tc.BytesPerOp != 8302781 {
		t.Errorf("TableConstruction = %+v", tc)
	}
	bt := got["BenchmarkBatchThroughput/cache=warm/workers=4"]
	if bt.NsPerOp != 11894916 {
		t.Errorf("BatchThroughput = %+v", bt)
	}
}

// TestParseBenchKeepsBestOfRepeats: with -count > 1, minimum ns/op and
// maximum allocs/op survive.
func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	in := `BenchmarkX-8 100 2000 ns/op 5 allocs/op
BenchmarkX-8 100 1000 ns/op 7 allocs/op
BenchmarkX-8 100 3000 ns/op 6 allocs/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := got["BenchmarkX"]
	if e.NsPerOp != 1000 {
		t.Errorf("ns/op = %v, want min 1000", e.NsPerOp)
	}
	if e.AllocsPerOp != 7 {
		t.Errorf("allocs/op = %v, want max 7", e.AllocsPerOp)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10},
	}

	// Everything within tolerance.
	got := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1050, AllocsPerOp: 105},
		"BenchmarkB": {NsPerOp: 900, AllocsPerOp: 0},
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10},
	}
	if p := compare(base, got, 0.10, 0.10); len(p) != 0 {
		t.Errorf("clean run reported problems: %v", p)
	}

	// ns/op regression past tolerance.
	got["BenchmarkA"] = Entry{NsPerOp: 1200, AllocsPerOp: 100}
	if p := compare(base, got, 0.10, 0.10); len(p) != 1 || !strings.Contains(p[0], "BenchmarkA") {
		t.Errorf("ns regression not caught: %v", p)
	}
	got["BenchmarkA"] = Entry{NsPerOp: 1000, AllocsPerOp: 100}

	// A zero-alloc baseline admits no allocations at all.
	got["BenchmarkB"] = Entry{NsPerOp: 900, AllocsPerOp: 1}
	if p := compare(base, got, 0.10, 0.10); len(p) != 1 || !strings.Contains(p[0], "allocates nothing") {
		t.Errorf("zero-alloc regression not caught: %v", p)
	}
	got["BenchmarkB"] = Entry{NsPerOp: 900, AllocsPerOp: 0}

	// allocs/op regression past tolerance.
	got["BenchmarkC"] = Entry{NsPerOp: 1000, AllocsPerOp: 12}
	if p := compare(base, got, 0.10, 0.10); len(p) != 1 || !strings.Contains(p[0], "BenchmarkC") {
		t.Errorf("alloc regression not caught: %v", p)
	}
	got["BenchmarkC"] = Entry{NsPerOp: 1000, AllocsPerOp: 10}

	// A baseline benchmark the run never measured fails the gate.
	delete(got, "BenchmarkC")
	if p := compare(base, got, 0.10, 0.10); len(p) != 1 || !strings.Contains(p[0], "not measured") {
		t.Errorf("missing benchmark not caught: %v", p)
	}
}

// TestCompareAnnotations covers the baseline gate annotations: the B/op
// ceiling, the cross-benchmark faster_than comparison, and the note
// echoed with failures.
func TestCompareAnnotations(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkSlow": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkFast": {NsPerOp: 700, AllocsPerOp: 0,
			FasterThan: "BenchmarkSlow", Note: "the fast path must beat the slow one"},
		"BenchmarkMem": {NsPerOp: 1000, AllocsPerOp: 50, MaxBytesPerOp: 4096},
	}

	got := map[string]Entry{
		"BenchmarkSlow": {NsPerOp: 2000, AllocsPerOp: 0},
		"BenchmarkFast": {NsPerOp: 1500, AllocsPerOp: 0},
		"BenchmarkMem":  {NsPerOp: 1000, AllocsPerOp: 50, BytesPerOp: 4000},
	}
	// Both halves slowed in lockstep (a slower machine): the wide ns
	// tolerance admits it and the relative gate still holds.
	if p := compare(base, got, 3.0, 0.10); len(p) != 0 {
		t.Errorf("clean annotated run reported problems: %v", p)
	}

	// The fast benchmark no longer strictly beats its rival; the note
	// rides along with the failure.
	got["BenchmarkFast"] = Entry{NsPerOp: 2000, AllocsPerOp: 0}
	p := compare(base, got, 3.0, 0.10)
	if len(p) != 1 || !strings.Contains(p[0], "not strictly below") {
		t.Errorf("faster_than violation not caught: %v", p)
	}
	if !strings.Contains(p[0], "must beat the slow one") {
		t.Errorf("note not echoed with failure: %v", p)
	}
	got["BenchmarkFast"] = Entry{NsPerOp: 1500, AllocsPerOp: 0}

	// faster_than against a benchmark missing from the run.
	delete(got, "BenchmarkSlow")
	if p := compare(base, got, 3.0, 0.10); len(p) != 2 { // missing + unmeasured rival
		t.Errorf("unmeasured rival not caught: %v", p)
	}
	got["BenchmarkSlow"] = Entry{NsPerOp: 2000, AllocsPerOp: 0}

	// B/op ceiling.
	got["BenchmarkMem"] = Entry{NsPerOp: 1000, AllocsPerOp: 50, BytesPerOp: 5000}
	if p := compare(base, got, 3.0, 0.10); len(p) != 1 || !strings.Contains(p[0], "exceeds ceiling") {
		t.Errorf("bytes ceiling violation not caught: %v", p)
	}
}

// TestParseBenchKeepsMaxBytes: B/op merges like allocs/op — worst of
// the repeats.
func TestParseBenchKeepsMaxBytes(t *testing.T) {
	in := `BenchmarkX-8 100 2000 ns/op 100 B/op 5 allocs/op
BenchmarkX-8 100 1000 ns/op 300 B/op 5 allocs/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkX"]; e.BytesPerOp != 300 {
		t.Errorf("B/op = %v, want max 300", e.BytesPerOp)
	}
}
