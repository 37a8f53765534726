package tables_test

import (
	"testing"

	"cogg/internal/tables"
	"cogg/specs"
)

// TestPackBoundedAllocs gates the comb packer's allocation count: Pack
// builds a handful of working buffers (the per-row column/action pools
// and row headers, the occupancy bitmap, and the three output arrays)
// whose number does not depend on the state count. Growth of the
// bitmap adds at most a logarithmic number of doublings, so a small
// constant bound holds even for the full 646-state grammar; a
// regression to per-row or per-entry allocation blows straight past it.
func TestPackBoundedAllocs(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	const limit = 64
	allocs := testing.AllocsPerRun(3, func() {
		tables.Pack(cg.Table)
	})
	if allocs > limit {
		t.Errorf("Pack allocates %.0f times per run, want <= %d", allocs, limit)
	}
}
