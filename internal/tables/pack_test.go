package tables

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cogg/internal/grammar"
	"cogg/internal/lr"
	"cogg/internal/spec"
	"cogg/specs"
)

// firstFitReference is the placement contract of Pack, written the
// plain way: rows densest first (state id breaking ties), each at the
// lowest base whose first-column slot is >= 0 and whose slots are all
// free, tested slot by slot against Check.
func firstFitReference(dense []lr.Action, nstates, ncols int) (base []int32, data []lr.Action, check []int32) {
	cols := make([][]int, nstates)
	for s := range cols {
		for c := 0; c < ncols; c++ {
			if dense[s*ncols+c].Kind() != lr.Error {
				cols[s] = append(cols[s], c)
			}
		}
	}
	order := make([]int, nstates)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return len(cols[order[i]]) > len(cols[order[j]]) })
	base = make([]int32, nstates)
	for _, s := range order {
		if len(cols[s]) == 0 {
			continue
		}
		b := -cols[s][0]
	search:
		for ; ; b++ {
			for _, c := range cols[s] {
				if idx := b + c; idx < len(check) && check[idx] != 0 {
					continue search
				}
			}
			break
		}
		base[s] = int32(b)
		for _, c := range cols[s] {
			idx := b + c
			for len(check) <= idx {
				check = append(check, 0)
				data = append(data, 0)
			}
			data[idx] = dense[s*ncols+c]
			check[idx] = int32(s) + 1
		}
	}
	return base, data, check
}

func samePlacement(t *testing.T, name string, dense []lr.Action, nstates, ncols int) {
	t.Helper()
	base, data, check := packRows(sigRows(dense, nstates, ncols))
	wb, wd, wc := firstFitReference(dense, nstates, ncols)
	if !slices.Equal(base, wb) || !slices.Equal(data, wd) || !slices.Equal(check, wc) {
		t.Fatalf("%s (%d states x %d cols): placement differs from first-fit reference\nbase  %v\nwant  %v\ncheck %v\nwant  %v",
			name, nstates, ncols, base, wb, check, wc)
	}
}

// TestPackMatchesFirstFitReference pins the word-parallel first-fit
// search to the slot-at-a-time one: identical Base, Data and Check on
// the shipped specifications and on seeded random tables.
func TestPackMatchesFirstFitReference(t *testing.T) {
	for _, s := range []struct{ name, src string }{
		{"amdahl470.cogg", specs.Amdahl470},
		{"amdahl-minimal.cogg", specs.AmdahlMinimal},
		{"risc32.cogg", specs.Risc32},
	} {
		f, err := spec.Parse(s.name, s.src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grammar.Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		a, err := lr.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		tbl := a.MakeTable()
		p := Pack(tbl)
		wb, wd, wc := firstFitReference(tbl.Rows(), tbl.NumStates, tbl.NumCols)
		if !slices.Equal(p.Base, wb) || !slices.Equal(p.Data, wd) || !slices.Equal(p.Check, wc) {
			t.Fatalf("%s: Pack differs from the first-fit reference", s.name)
		}
	}

	// Random tables. Each has an empty row and a full row; densities
	// run from a few entries to nearly full, so rows span one word,
	// two, and (at 200 columns) more than 128 slots.
	widths := []int{1, 2, 7, 63, 64, 65, 127, 129, 200}
	var spans64, spans128 int
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		ncols := widths[seed%int64(len(widths))]
		if seed%4 == 3 {
			ncols = 1 + r.Intn(200)
		}
		nstates := 2 + r.Intn(60)
		dense := make([]lr.Action, nstates*ncols)
		for s := 0; s < nstates; s++ {
			var p float64
			switch {
			case s == 0: // empty row
			case s == 1: // full row
				p = 1
			default:
				p = []float64{0, 0.02, 0.1, 0.3, 0.6, 0.9, 1}[r.Intn(7)]
			}
			first, last := -1, -1
			for c := 0; c < ncols; c++ {
				if r.Float64() < p {
					dense[s*ncols+c] = lr.MkAction(lr.Kind(1+r.Intn(3)), r.Intn(1<<14))
					if first < 0 {
						first = c
					}
					last = c
				}
			}
			if first >= 0 && last-first >= 64 {
				spans64++
			}
			if first >= 0 && last-first >= 128 {
				spans128++
			}
		}
		samePlacement(t, fmt.Sprintf("seed %d", seed), dense, nstates, ncols)
	}
	if spans64 == 0 || spans128 == 0 {
		t.Fatalf("random tables never spanned > 64 (%d rows) or > 128 (%d rows) columns", spans64, spans128)
	}
}

// packRowsPlain is packRows without the per-pattern memo: every row's
// search starts at the lowest non-full word, through placePlain, which
// is comb.place as it stood before the memo. It is the oracle the memo
// must match entry for entry.
func packRowsPlain(rows []sigRow) (base []int32, data []lr.Action, check []int32) {
	slices.SortFunc(rows, func(a, b sigRow) int {
		if len(a.cols) != len(b.cols) {
			return len(b.cols) - len(a.cols)
		}
		return a.id - b.id
	})
	base = make([]int32, len(rows))
	cb := comb{}
	for _, r := range rows {
		if len(r.cols) > 0 {
			base[r.id] = int32(placePlain(&cb, r.cols))
		}
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

func placePlain(cb *comb, cols []int32) int {
	first := int(cols[0])
	span := int(cols[len(cols)-1]) - first
	if need := (cb.n+63)>>6 + span>>6 + 2; len(cb.used) < need {
		cb.used = append(cb.used, make([]uint64, need-len(cb.used))...)
	}
	used := cb.used
	for w := cb.lo; ; w++ {
		var hit uint64
		for _, c := range cols {
			rel := int(c) - first
			i, b := w+rel>>6, uint(rel)&63
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

// repeatedPatternTable draws a table whose rows mostly reuse a few
// column patterns, so most placements start past an earlier row's slot.
// The pool holds a one-column pattern, a pattern starting above column
// 0, and, on wide tables, one spanning more than 64 columns; some rows
// are empty and some are drawn fresh.
func repeatedPatternTable(r *rand.Rand) (dense []lr.Action, nstates, ncols int) {
	ncols = []int{1, 3, 17, 64, 65, 130, 200}[r.Intn(7)]
	nstates = 2 + r.Intn(120)
	pattern := func(lo, hi int, p float64) []int {
		var cols []int
		for c := lo; c < hi; c++ {
			if r.Float64() < p {
				cols = append(cols, c)
			}
		}
		return cols
	}
	pool := [][]int{{r.Intn(ncols)}, pattern(r.Intn(ncols), ncols, 0.3)}
	if ncols > 66 {
		lo := r.Intn(ncols - 66)
		pool = append(pool, []int{lo, lo + 65 + r.Intn(ncols-lo-65)})
	}
	for i := r.Intn(4); i > 0; i-- {
		pool = append(pool, pattern(0, ncols, []float64{0.05, 0.3, 0.8}[r.Intn(3)]))
	}
	dense = make([]lr.Action, nstates*ncols)
	for s := 0; s < nstates; s++ {
		var cols []int
		switch k := r.Intn(10); {
		case k == 0: // empty row
		case k == 1:
			cols = pattern(0, ncols, r.Float64())
		default:
			cols = pool[r.Intn(len(pool))]
		}
		for _, c := range cols {
			dense[s*ncols+c] = lr.MkAction(lr.Kind(1+r.Intn(3)), r.Intn(1<<14))
		}
	}
	return dense, nstates, ncols
}

// TestPackMemoMatchesPlainSearch pins the memoized first fit to the
// plain one on tables built to hit the memo: Base, Data and Check must
// be identical. It also checks that the memo really fired, and that
// reused patterns crossed a 64-slot word.
func TestPackMemoMatchesPlainSearch(t *testing.T) {
	var repeats, wide int
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		dense, nstates, ncols := repeatedPatternTable(r)
		base, data, check := packRows(sigRows(dense, nstates, ncols))
		wb, wd, wc := packRowsPlain(sigRows(dense, nstates, ncols))
		if !slices.Equal(base, wb) || !slices.Equal(data, wd) || !slices.Equal(check, wc) {
			t.Fatalf("seed %d (%d states x %d cols): memoized placement differs from the plain search\nbase  %v\nwant  %v",
				seed, nstates, ncols, base, wb)
		}
		seen := map[string]bool{}
		for _, row := range sigRows(dense, nstates, ncols) {
			if len(row.cols) == 0 {
				continue
			}
			key := fmt.Sprint(row.cols)
			if seen[key] {
				repeats++
				if row.cols[len(row.cols)-1]-row.cols[0] >= 64 {
					wide++
				}
			}
			seen[key] = true
		}
	}
	if repeats < 10000 || wide < 100 {
		t.Fatalf("tables repeated a pattern only %d times (%d spanning > 64 columns)", repeats, wide)
	}
}

// TestPackMemoOnShippedSpecs checks the memo through Pack and PackDedup
// on the shipped specifications against the plain search.
func TestPackMemoOnShippedSpecs(t *testing.T) {
	for _, s := range []struct{ name, src string }{
		{"amdahl470.cogg", specs.Amdahl470},
		{"amdahl-minimal.cogg", specs.AmdahlMinimal},
		{"risc32.cogg", specs.Risc32},
	} {
		f, err := spec.Parse(s.name, s.src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grammar.Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		a, err := lr.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		tbl := a.MakeTable()
		rows := sigRows(tbl.Rows(), tbl.NumStates, tbl.NumCols)

		p := Pack(tbl)
		wb, wd, wc := packRowsPlain(slices.Clone(rows))
		if !slices.Equal(p.Base, wb) || !slices.Equal(p.Data, wd) || !slices.Equal(p.Check, wc) {
			t.Errorf("%s: Pack differs from the plain search", s.name)
		}

		// PackDedup packs the first row of each unique id, renumbered.
		d := PackDedup(tbl)
		uniques := make([]sigRow, d.UniqueRows())
		for state := len(rows) - 1; state >= 0; state-- {
			row := rows[state]
			row.id = int(d.RowOf[state])
			uniques[row.id] = row
		}
		wb, wd, wc = packRowsPlain(uniques)
		if !slices.Equal(d.Base, wb) || !slices.Equal(d.Data, wd) || !slices.Equal(d.Check, wc) {
			t.Errorf("%s: PackDedup differs from the plain search", s.name)
		}
	}
}
