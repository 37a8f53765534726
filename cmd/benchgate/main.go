// Command benchgate is the benchmark-regression gate: it parses `go
// test -bench` output, records the results as JSON, and compares them
// against a committed baseline, failing when a benchmark regressed past
// tolerance.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem . | benchgate [flags] [results-file]
//
// Without a results file the benchmark output is read from standard
// input.
//
//	-baseline FILE  baseline JSON to compare against (and the file
//	                -update rewrites)
//	-o FILE         write the measured results as JSON (the BENCH
//	                artifact a CI run uploads)
//	-update         rewrite the baseline from the measured results
//	                instead of comparing
//	-ns-tol F       allowed fractional ns/op regression (default 0.10;
//	                CI uses a larger value because absolute times do
//	                not transfer between machines)
//	-alloc-tol F    allowed fractional allocs/op regression (default
//	                0.10). allocs/op is machine-independent, so this
//	                gate is the sharp one — and a baseline of zero
//	                allocations admits no regression at all.
//
// With -count > 1 the best (minimum) ns/op and the worst (maximum)
// allocs/op and B/op per benchmark are kept: time noise is one-sided
// slow, allocation noise is one-sided high.
//
// Beyond the fractional tolerances, a baseline entry may carry gate
// annotations: "note" (a per-benchmark comparison note echoed with any
// failure), "max_bytes_per_op" (an absolute B/op ceiling), and
// "faster_than" (the name of a sibling benchmark this one must
// strictly beat on ns/op within the same run — machine-independent
// where absolute ns/op is not). -update preserves the annotations of
// an existing baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's measurement. The last three fields are
// baseline-only gate annotations: measured results never carry them,
// but a baseline entry may, and compare enforces them.
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// Note is a per-benchmark comparison note: it explains what this
	// entry gates and is echoed with any failure it produces.
	Note string `json:"note,omitempty"`
	// MaxBytesPerOp is an absolute B/op ceiling. Unlike the fractional
	// allocs tolerance it gates benchmarks whose baseline bytes are
	// nonzero but must stay bounded (a zero-alloc baseline already
	// admits nothing).
	MaxBytesPerOp float64 `json:"max_bytes_per_op,omitempty"`
	// FasterThan names a sibling benchmark this one must strictly beat
	// on ns/op in the same measured run. Both run on the same machine,
	// so the comparison is machine-independent where absolute ns/op is
	// not — it pins relative wins that a wide ns tolerance cannot.
	FasterThan string `json:"faster_than,omitempty"`
}

// File is the JSON shape of both the baseline and the results artifact.
type File struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON to compare against")
	out := flag.String("o", "", "write measured results to this JSON file")
	update := flag.Bool("update", false, "rewrite the baseline instead of comparing")
	nsTol := flag.Float64("ns-tol", 0.10, "allowed fractional ns/op regression")
	allocTol := flag.Float64("alloc-tol", 0.10, "allowed fractional allocs/op regression")
	note := flag.String("note", "", "note stored in written JSON files")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input"))
	}
	for _, name := range sortedNames(got) {
		e := got[name]
		fmt.Printf("%-60s %14.0f ns/op %10.0f allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	}
	if *out != "" {
		if err := writeFile(*out, &File{Note: *note, Benchmarks: got}); err != nil {
			fatal(err)
		}
	}
	if *update {
		if *baseline == "" {
			fatal(fmt.Errorf("-update requires -baseline"))
		}
		// A rewritten baseline keeps the previous one's gate
		// annotations: they are curated by hand, not measured.
		if prev, err := readFile(*baseline); err == nil {
			for name, e := range got {
				if pb, ok := prev.Benchmarks[name]; ok {
					e.Note = pb.Note
					e.MaxBytesPerOp = pb.MaxBytesPerOp
					e.FasterThan = pb.FasterThan
					got[name] = e
				}
			}
		}
		if err := writeFile(*baseline, &File{Note: *note, Benchmarks: got}); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline %s updated (%d benchmarks)\n", *baseline, len(got))
		return
	}
	if *baseline == "" {
		return
	}
	base, err := readFile(*baseline)
	if err != nil {
		fatal(err)
	}
	problems := compare(base.Benchmarks, got, *nsTol, *allocTol)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within tolerance of %s\n", len(base.Benchmarks), *baseline)
}

// parseBench reads `go test -bench` output: one entry per benchmark
// name (GOMAXPROCS suffix stripped), keeping min ns/op and max
// allocs/op across repeated lines.
func parseBench(r io.Reader) (map[string]Entry, error) {
	out := map[string]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := Entry{Metrics: map[string]float64{}}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp, ok = v, true
			case "allocs/op":
				e.AllocsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			default:
				e.Metrics[unit] = v
			}
		}
		if !ok {
			continue
		}
		if len(e.Metrics) == 0 {
			e.Metrics = nil
		}
		if prev, seen := out[name]; seen {
			if prev.NsPerOp < e.NsPerOp {
				e.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp > e.AllocsPerOp {
				e.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp > e.BytesPerOp {
				e.BytesPerOp = prev.BytesPerOp
			}
		}
		out[name] = e
	}
	return out, sc.Err()
}

// compare reports every baseline benchmark that regressed (or is
// missing from the measured set). A baseline entry's Note is echoed
// with each of its failures so the gate explains itself.
func compare(base, got map[string]Entry, nsTol, allocTol float64) []string {
	var problems []string
	for _, name := range sortedNames(base) {
		b := base[name]
		fail := func(format string, args ...any) {
			p := name + ": " + fmt.Sprintf(format, args...)
			if b.Note != "" {
				p += " [" + b.Note + "]"
			}
			problems = append(problems, p)
		}
		g, ok := got[name]
		if !ok {
			fail("in baseline but not measured")
			continue
		}
		if limit := b.NsPerOp * (1 + nsTol); b.NsPerOp > 0 && g.NsPerOp > limit {
			fail("%.0f ns/op exceeds baseline %.0f by more than %.0f%%",
				g.NsPerOp, b.NsPerOp, nsTol*100)
		}
		switch {
		case b.AllocsPerOp == 0 && g.AllocsPerOp > 0:
			fail("%.0f allocs/op where baseline allocates nothing", g.AllocsPerOp)
		case g.AllocsPerOp > b.AllocsPerOp*(1+allocTol):
			fail("%.0f allocs/op exceeds baseline %.0f by more than %.0f%%",
				g.AllocsPerOp, b.AllocsPerOp, allocTol*100)
		}
		if b.MaxBytesPerOp > 0 && g.BytesPerOp > b.MaxBytesPerOp {
			fail("%.0f B/op exceeds ceiling %.0f", g.BytesPerOp, b.MaxBytesPerOp)
		}
		if b.FasterThan != "" {
			rival, measured := got[b.FasterThan]
			switch {
			case !measured:
				fail("must beat %s, which was not measured in this run", b.FasterThan)
			case g.NsPerOp >= rival.NsPerOp:
				fail("%.0f ns/op is not strictly below %s's %.0f",
					g.NsPerOp, b.FasterThan, rival.NsPerOp)
			}
		}
	}
	return problems
}

func sortedNames(m map[string]Entry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
