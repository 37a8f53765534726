package tables

import "cogg/internal/lr"

// PackedDedup is an ablation of the row-displacement scheme: identical
// rows are merged before comb packing. The measured result is negative —
// in an LR action table every row carries state-specific shift targets,
// so no two rows coincide and the extra row-index array only adds
// overhead (see BenchmarkCompressionAblation). The further step, default
// reductions, would shrink the table but conflicts with the scheme's
// central guarantee: a default reduce runs instruction templates before
// the error is noticed, and the paper requires the generator to "stop
// and signal an error" instead of emitting a wrong sequence. The comb
// over significant entries is what remains.
type PackedDedup struct {
	NumStates int
	NumCols   int
	ColOf     []int32
	RowOf     []int32 // state -> unique row id
	Base      []int32 // per unique row
	Data      []lr.Action
	Check     []int32 // owning unique row + 1
}

// PackDedup merges identical rows, then comb-packs the unique ones with
// the same first-fit placement as Pack. Unique row ids follow the first
// state holding each row.
func PackDedup(t *lr.Table) *PackedDedup {
	p := &PackedDedup{
		NumStates: t.NumStates,
		NumCols:   t.NumCols,
		ColOf:     append([]int32(nil), t.ColOf...),
		RowOf:     make([]int32, t.NumStates),
	}
	// MakeTable leaves every error entry as the zero action, so two rows
	// are identical exactly when their significant entries are.
	index := map[string]int32{}
	var uniques []sigRow
	for s, r := range sigRows(t.Rows(), t.NumStates, t.NumCols) {
		key := rowKey(r)
		id, ok := index[key]
		if !ok {
			id = int32(len(uniques))
			index[key] = id
			r.id = int(id)
			uniques = append(uniques, r)
		}
		p.RowOf[s] = id
	}
	p.Base, p.Data, p.Check = packRows(uniques)
	return p
}

func rowKey(r sigRow) string {
	b := make([]byte, 0, len(r.cols)*8)
	for i, c := range r.cols {
		a := r.acts[i]
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24),
			byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	return string(b)
}

// Lookup returns the action for (state, symbol id).
func (p *PackedDedup) Lookup(state, sym int) lr.Action {
	col := p.ColOf[sym]
	if col < 0 {
		return lr.MkAction(lr.Error, 0)
	}
	row := p.RowOf[state]
	idx := int(p.Base[row]) + int(col)
	if idx < 0 || idx >= len(p.Check) || p.Check[idx] != row+1 {
		return lr.MkAction(lr.Error, 0)
	}
	return p.Data[idx]
}

// UniqueRows reports how many distinct rows the table has.
func (p *PackedDedup) UniqueRows() int { return len(p.Base) }

// SizeBytes accounts the storage with the same entry widths as Packed:
// two bytes per data/check/column entry, two per row index, four per
// base.
func (p *PackedDedup) SizeBytes() int {
	return 2*len(p.ColOf) + 2*len(p.RowOf) + 4*len(p.Base) + 2*len(p.Data) + 2*len(p.Check)
}
