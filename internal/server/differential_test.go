package server

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"cogg/internal/batch"
	"cogg/internal/driver"
	"cogg/internal/ifopt"
	"cogg/internal/ir"
	"cogg/internal/pascal/pascaltest"
	"cogg/internal/rt370"
	"cogg/internal/shaper"
	"cogg/specs"
)

// corpus are the differential inputs: the end-to-end sieve program and
// the paper's appendix-1 expression.
var corpus = []string{"sieve.pas", "appendix1.pas"}

// referenceService builds the library path the pascal370 and ifcgen
// CLIs execute: a fresh batch service and target with the stock
// amdahl470 configuration.
func referenceService(t *testing.T) (*batch.Service, *driver.Target) {
	t.Helper()
	svc := batch.New(batch.Options{})
	tgt, err := svc.Target("amdahl470.cogg", specs.Amdahl470, rt370.Config())
	if err != nil {
		t.Fatal(err)
	}
	return svc, tgt
}

// differentialPrograms are TestDifferentialPascal's inputs: the corpus
// files plus the differential fuzzer's random programs (pascaltest
// seeds 1-40).
func differentialPrograms(t *testing.T) (names, sources []string) {
	t.Helper()
	for _, file := range corpus {
		src, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		names, sources = append(names, file), append(sources, string(src))
	}
	for seed := int64(1); seed <= 40; seed++ {
		names, sources = append(names, fmt.Sprintf("seed%d", seed)), append(sources, pascaltest.Program(seed))
	}
	return names, sources
}

// TestDifferentialPascal: for every program, with and without the IF
// optimizer, the daemon's listing, object deck, linearized IF and
// counters must be byte-identical to what the pascal370 CLI prints from
// the same source (its -S, -deck, and -if views, produced here through
// the same library calls the CLI makes, on a fresh session per
// program). The daemon runs one worker over a one-session pool, and a
// raw-IF request follows every other Pascal one, so every compile after
// the first runs on a reused session that last served Pascal or IF.
func TestDifferentialPascal(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 1, Workers: 1})
	svc, refTgt := referenceService(t)
	names, sources := differentialPrograms(t)
	reused0 := varz(t, ts).Pools["amdahl470.cogg"].Reused
	requests := 0

	for i, file := range names {
		src := sources[i]
		for _, cse := range []bool{false, true} {
			name := file
			if cse {
				name = file + "+cse"
			}
			t.Run(name, func(t *testing.T) {
				// The CLI's option construction, verbatim: statement
				// records on, optional CSE pass.
				opt := shaper.Options{StatementRecords: true}
				if cse {
					opt.CSE = ifopt.New().Apply
				}
				rs := svc.CompileBatch(refTgt, []batch.Unit{{Name: name, Source: src, Opt: opt}})
				if rs[0].Err != nil {
					t.Fatalf("reference compile: %v", rs[0].Err)
				}
				c := rs[0].Compiled
				var deck strings.Builder
				if err := c.Deck.WriteCards(&deck); err != nil {
					t.Fatal(err)
				}

				status, resp := compile(t, ts, CompileRequest{
					Name: name, Source: src, Deck: true, IF: true,
					Options: CompileOptions{CSE: cse},
				})
				requests++
				if status != http.StatusOK {
					t.Fatalf("server compile: status %d (%+v)", status, resp.Failure)
				}
				if resp.Listing != c.Listing() {
					t.Errorf("listing differs from the pascal370 path (%d vs %d bytes)", len(resp.Listing), len(c.Listing()))
				}
				gotDeck, err := base64.StdEncoding.DecodeString(resp.Deck)
				if err != nil {
					t.Fatalf("deck is not valid base64: %v", err)
				}
				if string(gotDeck) != deck.String() {
					t.Errorf("deck differs from the pascal370 path (%d vs %d bytes)", len(gotDeck), len(deck.String()))
				}
				if want := ir.FormatTokens(c.Tokens); resp.IF != want {
					t.Errorf("IF view differs from the pascal370 path (%d vs %d bytes)", len(resp.IF), len(want))
				}
				if resp.Tokens != len(c.Tokens) || resp.Reductions != c.Result.Reductions ||
					resp.Instructions != c.Prog.InstructionCount() || resp.CodeBytes != c.Prog.CodeSize {
					t.Errorf("counters differ: server %d/%d/%d/%d, reference %d/%d/%d/%d",
						resp.Tokens, resp.Reductions, resp.Instructions, resp.CodeBytes,
						len(c.Tokens), c.Result.Reductions, c.Prog.InstructionCount(), c.Prog.CodeSize)
				}

				if requests%2 == 1 {
					status, resp := compile(t, ts, CompileRequest{Name: name + ".if", Lang: "if", Source: resp.IF})
					requests++
					if status != http.StatusOK {
						t.Fatalf("raw-IF request: status %d (%+v)", status, resp.Failure)
					}
				}
			})
		}
	}
	if got := varz(t, ts).Pools["amdahl470.cogg"].Reused - reused0; got != int64(requests-1) {
		t.Errorf("%d requests reused %d pooled sessions, want %d", requests, got, requests-1)
	}
}

// TestDifferentialIF: the corpus programs' linearized IF streams are fed
// back as raw IF through both the ifcgen library path (a fresh session
// per unit) and the daemon's pooled-session path. Listings and counters
// must agree byte for byte — this is the real cross-implementation
// check, because the two paths build their sessions differently. Each
// stream runs through the daemon twice so the second pass exercises a
// *reused* session.
func TestDifferentialIF(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 2})
	svc, refTgt := referenceService(t)

	for _, file := range corpus {
		src, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(file, func(t *testing.T) {
			// Derive a realistic IF stream from the front end.
			rs := svc.CompileBatch(refTgt, []batch.Unit{{
				Name: file, Source: string(src), Opt: shaper.Options{StatementRecords: true},
			}})
			if rs[0].Err != nil {
				t.Fatalf("deriving IF: %v", rs[0].Err)
			}
			ifText := ir.FormatTokens(rs[0].Compiled.Tokens)
			unitName := file + ".if"

			// ifcgen's path: TranslateBatch with a fresh session.
			want := svc.TranslateBatch(refTgt, []batch.IFUnit{{Name: unitName, Text: ifText}})[0]
			if want.Err != nil {
				t.Fatalf("reference translation: %v", want.Err)
			}

			for pass := 1; pass <= 2; pass++ {
				status, resp := compile(t, ts, CompileRequest{Name: unitName, Lang: "if", Source: ifText})
				if status != http.StatusOK {
					t.Fatalf("pass %d: status %d (%+v)", pass, status, resp.Failure)
				}
				if resp.Listing != want.Listing {
					t.Errorf("pass %d: listing differs from the ifcgen path (%d vs %d bytes)",
						pass, len(resp.Listing), len(want.Listing))
				}
				if resp.Tokens != want.Tokens || resp.Reductions != want.Reductions ||
					resp.Instructions != want.Instructions || resp.CodeBytes != want.CodeBytes {
					t.Errorf("pass %d: counters differ: server %d/%d/%d/%d, reference %d/%d/%d/%d",
						pass, resp.Tokens, resp.Reductions, resp.Instructions, resp.CodeBytes,
						want.Tokens, want.Reductions, want.Instructions, want.CodeBytes)
				}
			}
		})
	}
}
