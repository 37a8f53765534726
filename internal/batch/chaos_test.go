package batch_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/faultinject"
	"cogg/internal/shaper"
	"cogg/specs"
)

// chaosUnits builds n distinct programs named u00..u(n-1). The program
// name in the source matches the unit name, so failpoints keyed by unit
// name fire for that unit's reductions too.
func chaosUnits(n int) []batch.Unit {
	units := make([]batch.Unit, n)
	for i := range units {
		name := fmt.Sprintf("u%02d", i)
		units[i] = batch.Unit{
			Name: name,
			Source: fmt.Sprintf(`
program %s;
var x, y: integer;
begin
  x := %d;
  y := x * %d + x;
  x := y - %d
end.
`, name, 100+i, 3+i, i),
			Opt: shaper.Options{},
		}
	}
	return units
}

// TestChaosThreePoisonedUnits is the headline fault-tolerance property:
// with failpoints injecting a panic, a 5 second delay, and an I/O error
// into 3 of 16 batch units, the other 13 succeed with byte-identical
// output to a fault-free run, and the 3 report distinct FailureModes.
func TestChaosThreePoisonedUnits(t *testing.T) {
	units := chaosUnits(16)
	svc := batch.New(batch.Options{Workers: 8})
	tgt := minimalTarget(t, svc)

	clean := svc.CompileBatch(tgt, units)
	for _, r := range clean {
		if r.Err != nil {
			t.Fatalf("fault-free run: unit %s: %v", r.Name, r.Err)
		}
	}

	defer faultinject.Reset()
	// u03 panics deep in the pipeline, mid-reduction; u07 stalls for 5s
	// inside its unit, past the 1s deadline; u11 hits an I/O fault that
	// persists across the retry.
	faultinject.Set(faultinject.Rule{Site: "codegen/reduce", Key: "u03", Kind: faultinject.KindPanic})
	faultinject.Set(faultinject.Rule{Site: "batch/unit", Key: "u07", Kind: faultinject.KindDelay, Delay: 5 * time.Second})
	faultinject.Set(faultinject.Rule{Site: "batch/unit", Key: "u11", Kind: faultinject.KindError, Class: "io"})

	chaos := batch.New(batch.Options{
		Workers:      8,
		UnitTimeout:  time.Second,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	tgt2 := minimalTarget(t, chaos)
	results := chaos.CompileBatch(tgt2, units)

	want := map[string]batch.FailureMode{
		"u03": batch.FailPanic,
		"u07": batch.FailTimeout,
		"u11": batch.FailIO,
	}
	for i, r := range results {
		mode, poisoned := want[r.Name]
		if !poisoned {
			if r.Err != nil {
				t.Errorf("healthy unit %s failed under chaos: %v", r.Name, r.Err)
				continue
			}
			if got, cleanL := r.Compiled.Listing(), clean[i].Compiled.Listing(); got != cleanL {
				t.Errorf("unit %s listing differs between chaos and fault-free runs", r.Name)
			}
			continue
		}
		if r.Err == nil {
			t.Errorf("poisoned unit %s succeeded, want %v failure", r.Name, mode)
			continue
		}
		if r.Mode != mode {
			t.Errorf("unit %s failed as %v, want %v (err: %v)", r.Name, r.Mode, mode, r.Err)
		}
	}

	// The recovered panic must carry its stack.
	if pr := results[3]; pr.Err != nil && !strings.Contains(pr.Err.Error(), "goroutine") {
		t.Errorf("panic error carries no stack trace:\n%v", pr.Err)
	}

	v := chaos.Stats.Snapshot()
	if v.UnitsCompiled != 13 || v.UnitsFailed != 3 {
		t.Errorf("stats: compiled=%d failed=%d, want 13/3", v.UnitsCompiled, v.UnitsFailed)
	}
	if v.FailedPanic != 1 || v.FailedTimeout != 1 || v.FailedIO != 1 {
		t.Errorf("failure taxonomy: panic=%d timeout=%d io=%d, want 1/1/1",
			v.FailedPanic, v.FailedTimeout, v.FailedIO)
	}
	if v.Retries != 1 {
		t.Errorf("transient I/O fault retried %d times, want 1", v.Retries)
	}
	stats := chaos.Stats.String()
	if !strings.Contains(stats, "failure modes") || !strings.Contains(stats, "1 panic") {
		t.Errorf("stats rendering lacks the failure taxonomy:\n%s", stats)
	}
}

// TestChaosTranslateBatch proves IF-stream units are isolated the same
// way program units are.
func TestChaosTranslateBatch(t *testing.T) {
	svc := batch.New(batch.Options{Workers: 4})
	tgt := minimalTarget(t, svc)
	units := []batch.IFUnit{
		{Name: "a.if", Text: "assign fullword dsp.100 r.13 fullword dsp.104 r.13"},
		{Name: "b.if", Text: "assign fullword dsp.100 r.13 iadd fullword dsp.104 r.13 fullword dsp.108 r.13"},
		{Name: "c.if", Text: "assign fullword dsp.112 r.13 iadd fullword dsp.100 r.13 fullword dsp.104 r.13"},
	}

	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "batch/unit", Key: "b.if", Kind: faultinject.KindPanic})

	results := svc.TranslateBatch(tgt, units)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy IF units failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Mode != batch.FailPanic {
		t.Fatalf("poisoned IF unit: mode=%v err=%v, want panic", results[1].Mode, results[1].Err)
	}
	if results[0].Listing == "" || results[2].Listing == "" {
		t.Fatal("healthy IF units produced no listings")
	}
}

// TestCacheWriteFaultDegrades: a persistently failing cache write is
// retried, counted, and then ignored — the module is still served and
// the batch is unaffected.
func TestCacheWriteFaultDegrades(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "blob/put", Kind: faultinject.KindError, Class: "io"})

	dir := t.TempDir()
	svc := batch.New(batch.Options{CacheDir: dir, Retries: 2, RetryBackoff: time.Millisecond})
	minimalTarget(t, svc)

	v := svc.Stats.Snapshot()
	if v.DiskWriteErrs != 1 {
		t.Errorf("DiskWriteErrs = %d, want 1", v.DiskWriteErrs)
	}
	if v.Retries != 2 {
		t.Errorf("Retries = %d, want 2", v.Retries)
	}
	if n := len(cacheFiles(t, dir)); n != 0 {
		t.Errorf("disk cache holds %d entries despite injected write faults", n)
	}
}

// TestCacheWriteFaultRetriesThenSucceeds: a fault that fires once is
// absorbed by the retry — the entry lands on disk and nothing degrades.
func TestCacheWriteFaultRetriesThenSucceeds(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "blob/put", Kind: faultinject.KindError, Class: "io", Count: 1})

	dir := t.TempDir()
	svc := batch.New(batch.Options{CacheDir: dir, Retries: 2, RetryBackoff: time.Millisecond})
	minimalTarget(t, svc)

	v := svc.Stats.Snapshot()
	if v.Retries != 1 || v.DiskWriteErrs != 0 {
		t.Errorf("retries=%d degraded=%d, want 1/0", v.Retries, v.DiskWriteErrs)
	}
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Errorf("disk cache holds %d entries, want 1", n)
	}
}

// cancelOnPut cancels a context right after the first Put it forwards,
// recording when, so a test can time what follows the cancellation.
type cancelOnPut struct {
	blob.Store
	cancel   context.CancelFunc
	canceled time.Time
}

func (c *cancelOnPut) Put(ctx context.Context, key string, payload []byte) error {
	err := c.Store.Put(ctx, key, payload)
	if c.canceled.IsZero() {
		c.canceled = time.Now()
		c.cancel()
	}
	return err
}

// TestCacheWriteRetryHonorsCancel: a cache write failing with a
// transient fault backs off before retrying, but a canceled context ends
// the wait at once instead of sleeping through the schedule.
func TestCacheWriteRetryHonorsCancel(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "blob/put", Kind: faultinject.KindError, Class: "io"})

	const backoff = time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &cancelOnPut{Store: blob.NewMem(0, 0), cancel: cancel}
	svc := batch.New(batch.Options{Blob: store, Retries: 3, RetryBackoff: backoff})

	mod, err := svc.ModuleCtx(ctx, specName, specs.AmdahlMinimal)
	if err != nil || mod == nil {
		t.Fatalf("ModuleCtx = %v, %v; a failed cache write must still serve the module", mod, err)
	}
	if store.canceled.IsZero() {
		t.Fatal("the cache write never reached the store")
	}
	if d := time.Since(store.canceled); d >= backoff/4 {
		t.Errorf("returned %v after cancellation; want well within one %v backoff quantum", d, backoff)
	}
	if v := svc.Stats.Snapshot(); v.DiskWriteErrs != 1 {
		t.Errorf("DiskWriteErrs = %d, want 1", v.DiskWriteErrs)
	}
}

// TestCacheRenameFaultLeavesNoDebris: a fault at the atomic-rename step
// degrades like any write fault and must not leave temporary files.
func TestCacheRenameFaultLeavesNoDebris(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "blob/fs/rename", Kind: faultinject.KindError, Class: "io"})

	dir := t.TempDir()
	svc := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, svc)

	if svc.Stats.Snapshot().DiskWriteErrs != 1 {
		t.Error("rename fault not counted as a degraded write")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Errorf("rename fault left temp files behind: %v", tmp)
	}
}

// TestCacheReadFaultFallsBack: an unreadable disk entry is a miss, not
// an error — the service rebuilds from source.
func TestCacheReadFaultFallsBack(t *testing.T) {
	dir := t.TempDir()
	minimalTargetAt(t, dir) // seed the disk tier

	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "blob/get", Kind: faultinject.KindError, Class: "io"})

	svc := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, svc)
	v := svc.Stats.Snapshot()
	if v.Misses != 1 || v.DiskHits != 0 {
		t.Errorf("read fault: misses=%d diskHits=%d, want 1/0", v.Misses, v.DiskHits)
	}
}

// TestDecodeFaultRegenerates: a fault injected into module decoding is
// indistinguishable from a corrupt entry — counted bad, entry dropped,
// tables rebuilt from specification source.
func TestDecodeFaultRegenerates(t *testing.T) {
	dir := t.TempDir()
	minimalTargetAt(t, dir) // seed the disk tier

	defer faultinject.Reset()
	faultinject.Set(faultinject.Rule{Site: "tables/decode", Kind: faultinject.KindError, Class: "io"})

	svc := batch.New(batch.Options{CacheDir: dir})
	minimalTarget(t, svc)
	v := svc.Stats.Snapshot()
	if v.DiskBad != 1 || v.Misses != 1 {
		t.Errorf("decode fault: bad=%d misses=%d, want 1/1", v.DiskBad, v.Misses)
	}
}

func minimalTargetAt(t *testing.T, dir string) {
	t.Helper()
	minimalTarget(t, batch.New(batch.Options{CacheDir: dir}))
}

// TestEnvVarArming exercises the COGG_FAILPOINTS production path: the
// same grammar the env variable uses, armed via Arm, drives a batch.
func TestEnvVarArming(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.Arm("batch/unit#u01=error:io"); err != nil {
		t.Fatal(err)
	}
	svc := batch.New(batch.Options{Workers: 2})
	tgt := minimalTarget(t, svc)
	results := svc.CompileBatch(tgt, chaosUnits(3))
	if results[1].Mode != batch.FailIO {
		t.Fatalf("unit u01: mode=%v err=%v, want io", results[1].Mode, results[1].Err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy units failed: %v / %v", results[0].Err, results[2].Err)
	}
}
