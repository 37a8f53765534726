// Package tables packs, compresses, and serializes the driving tables of
// a generated code generator, and accounts for their storage in 4096-byte
// pages (the unit of the paper's Table 2).
//
// Two table forms are provided:
//
//   - the uncompressed action matrix (states x symbols), and
//   - a row-displacement ("comb") compression: significant entries of all
//     rows are interleaved into a single data array with a check array
//     identifying the owning row, exploiting the observation that fewer
//     than half of the entries are significant.
//
// The paper notes its compressed tables are "by no means minimally
// compressed"; row displacement matches that engineering point.
package tables

import (
	"cmp"
	"math/bits"
	"slices"

	"cogg/internal/lr"
)

// PageSize is the storage accounting unit: one page on the Amdahl 470.
const PageSize = 4096

// Pages converts a byte count to (fractional) pages.
func Pages(bytes int) float64 { return float64(bytes) / PageSize }

// Packed is the row-displacement compressed action table.
type Packed struct {
	NumStates int
	NumCols   int
	ColOf     []int32     // symbol id -> column; -1 for non-IF symbols
	Base      []int32     // per-state displacement into Data/Check
	Data      []lr.Action // significant entries
	Check     []int32     // owning state + 1; 0 marks a free slot
}

// Pack compresses the action table by first-fit row displacement.
// Rows are placed densest-first, which keeps the comb tight.
func Pack(t *lr.Table) *Packed {
	base, data, check := packRows(sigRows(t.Rows(), t.NumStates, t.NumCols))
	return &Packed{
		NumStates: t.NumStates,
		NumCols:   t.NumCols,
		ColOf:     append([]int32(nil), t.ColOf...),
		Base:      base,
		Data:      data,
		Check:     check,
	}
}

// sigRow is one row's significant entries: ascending columns and their
// actions. id names the row's Base slot and, plus one, its Check mark.
type sigRow struct {
	id   int
	cols []int32
	acts []lr.Action
}

// sigRows collects the significant entries of a row-major dense matrix
// in one pass, backed by two shared arrays, so placement never
// rematerializes a dense row. Row i gets id i.
func sigRows(dense []lr.Action, nrows, ncols int) []sigRow {
	nsig := 0
	for _, a := range dense {
		if a.Kind() != lr.Error {
			nsig++
		}
	}
	colBuf := make([]int32, 0, nsig)
	actBuf := make([]lr.Action, 0, nsig)
	rows := make([]sigRow, nrows)
	for i := range rows {
		start := len(colBuf)
		for c, a := range dense[i*ncols : (i+1)*ncols] {
			if a.Kind() != lr.Error {
				colBuf = append(colBuf, int32(c))
				actBuf = append(actBuf, a)
			}
		}
		rows[i] = sigRow{
			id:   i,
			cols: colBuf[start:len(colBuf):len(colBuf)],
			acts: actBuf[start:len(actBuf):len(actBuf)],
		}
	}
	return rows
}

// packRows lays rows (ids 0..len(rows)-1) into one comb, reordering rows
// in place. Rows go densest first, id breaking ties: a total order, so
// the placement sequence is deterministic. Each row takes the first-fit
// base: the lowest one at which its first column's slot is >= 0 and all
// of its slots are free. An empty row gets base 0.
//
// Occupancy only grows, so every first-column slot a row's search
// rejected stays rejected for any later row with the same columns, and
// the slot it took is now taken. Such a row's first fit therefore lies
// past the earlier row's slot, and its search starts there: the same
// placement, without testing again what is known to collide. Rows with
// equal columns have equal length, so the earlier row sits in the same
// band of the densest-first order, and a backward scan of that band
// finds it without any per-row memory.
func packRows(rows []sigRow) (base []int32, data []lr.Action, check []int32) {
	slices.SortFunc(rows, func(a, b sigRow) int {
		if c := cmp.Compare(len(b.cols), len(a.cols)); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	base = make([]int32, len(rows))
	nsig := 0
	for _, r := range rows {
		nsig += len(r.cols)
	}
	// Room for a comb twice the entry count keeps the bitmap from
	// growing on real tables.
	cb := comb{used: make([]uint64, 0, nsig/32+4)}
	band := 0 // index of the first row as long as the current one
	for i, r := range rows {
		if len(r.cols) == 0 {
			break // empty rows sort last and keep base 0
		}
		if len(r.cols) != len(rows[band].cols) {
			band = i
		}
		from := 0
		for j := i - 1; j >= band; j-- {
			if q := rows[j]; slices.Equal(q.cols, r.cols) {
				from = int(base[q.id]+q.cols[0]) + 1
				break
			}
		}
		base[r.id] = int32(cb.place(r.cols, from))
	}
	data = make([]lr.Action, cb.n)
	check = make([]int32, cb.n)
	for _, r := range rows {
		b := int(base[r.id])
		for i, c := range r.cols {
			data[b+int(c)] = r.acts[i]
			check[b+int(c)] = int32(r.id) + 1
		}
	}
	return base, data, check
}

// comb is the occupancy of a row-displacement array under construction,
// one bit per slot. Every word below lo is full; n is one past the
// highest occupied slot.
type comb struct {
	used []uint64
	lo   int
	n    int
}

// place returns the first-fit base for a row with significant columns
// cols (ascending, non-empty) whose first column takes a slot >= from,
// and marks its slots occupied.
//
// The search tests 64 candidate start slots per step. For the block of
// start slots 64w..64w+63, bit j of hit is set when start slot 64w+j
// collides: it is the OR, over the row's offsets from its first column,
// of the 64-slot occupancy window at that offset. The lowest zero bit
// of hit is the first fit in the block. Blocks below lo are full and
// cannot hold the first column, so the search starts there or at
// from's block, whichever is later, with the slots below from marked as
// hits; the block past the last occupied word always fits.
func (cb *comb) place(cols []int32, from int) int {
	first := int(cols[0])
	span := int(cols[len(cols)-1]) - first
	// The search stops by block (n+63)/64, which is empty, and a window
	// reads two words from its offset, so need words cover every read.
	// Growth doubles by hand: the append(used, make(...)...) idiom
	// allocates its temporary under the race detector. Words past len
	// were never written, so a reslice exposes zeros.
	if need := (cb.n+63)>>6 + span>>6 + 2; len(cb.used) < need {
		if need > cap(cb.used) {
			grown := make([]uint64, len(cb.used), max(need, 2*cap(cb.used)))
			copy(grown, cb.used)
			cb.used = grown
		}
		cb.used = cb.used[:need]
	}
	used := cb.used
	for w := max(cb.lo, from>>6); ; w++ {
		var hit uint64
		if w == from>>6 {
			hit = 1<<(uint(from)&63) - 1
		}
		for _, c := range cols {
			rel := int(c) - first
			i, b := w+rel>>6, uint(rel)&63
			// A shift by 64 yields 0 in Go, so b == 0 needs no branch.
			hit |= used[i]>>b | used[i+1]<<(64-b)
			if hit == ^uint64(0) {
				break
			}
		}
		if hit == ^uint64(0) {
			continue
		}
		s := w<<6 | bits.TrailingZeros64(^hit)
		for _, c := range cols {
			idx := s + int(c) - first
			used[idx>>6] |= 1 << (uint(idx) & 63)
		}
		cb.n = max(cb.n, s+span+1)
		for cb.lo < len(used) && used[cb.lo] == ^uint64(0) {
			cb.lo++
		}
		return s - first
	}
}

// Lookup returns the action for (state, symbol id), Error for symbols
// without a column and for insignificant entries.
func (p *Packed) Lookup(state, sym int) lr.Action {
	col := p.ColOf[sym]
	if col < 0 {
		return lr.MkAction(lr.Error, 0)
	}
	idx := int(p.Base[state]) + int(col)
	if idx < 0 || idx >= len(p.Check) || p.Check[idx] != int32(state)+1 {
		return lr.MkAction(lr.Error, 0)
	}
	return p.Data[idx]
}

// SizeBytes returns the storage for the compressed table as serialized:
// two bytes per data and check entry (actions carry a 2-bit kind and a
// 14-bit target; check holds the owning state), four per base entry, two
// per column-map entry. The result is "by no means minimally compressed"
// (no row merging, no default actions), matching the paper's engineering
// point.
func (p *Packed) SizeBytes() int {
	return 2*len(p.ColOf) + 4*len(p.Base) + 2*len(p.Data) + 2*len(p.Check)
}

// UncompressedSizeBytes returns the storage for the dense matrix at four
// bytes per action.
func UncompressedSizeBytes(t *lr.Table) int { return 4 * t.NumStates * t.NumCols }
