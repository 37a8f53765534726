package tables

import (
	"fmt"
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
