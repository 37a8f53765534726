// Package lr constructs the parsing automaton that drives a CoGG code
// generator: an SLR(1) machine over the linearized prefix intermediate
// form, with the Graham-Glanville conflict resolution rules.
//
// The machine differs from a conventional LR parser in one respect: after
// a reduction the left-hand side nonterminal is prefixed to the *input
// stream* (with its semantic value — an allocated register, a condition
// code) rather than being pushed through a separate GOTO table. Shift
// actions therefore exist uniformly for terminals, operators, and
// nonterminals, and the table's X dimension counts every symbol that can
// be encountered in the IF during a parse (entry ii of Table 1).
//
// Code generation grammars are deliberately ambiguous: many productions
// overlap so that the generator can recognize a large number of tree
// shapes (there are "no less than thirteen productions associated with
// integer addition" in the paper's specification). Conflicts are resolved
// as Glanville prescribes:
//
//   - shift/reduce: shift, matching the largest possible subtree
//     (maximal munch);
//   - reduce/reduce: the production with the longer right side wins, ties
//     broken in favor of the production declared first — specification
//     order encodes the implementer's preference.
//
// Construction works over dense representations throughout: FIRST/FOLLOW
// and closure membership are word-packed bitsets (SymSet), per-state
// shift actions are a dense slice indexed by symbol, and kernel item
// sets are interned by hash so each distinct kernel is closed exactly
// once.
package lr

import (
	"cmp"
	"fmt"
	"slices"

	"cogg/internal/grammar"
)

// Item is an LR(0) item: a production with a dot position.
type Item struct {
	Prod int // index into Grammar.Prods
	Dot  int
}

// State is one state of the parsing automaton.
type State struct {
	ID     int
	Kernel []Item
	Items  []Item // closure

	// Shift is dense: Shift[sym] is the successor state for symbol sym,
	// or -1 when the symbol cannot be shifted here. Its length is the
	// automaton's NumSymbols.
	Shift []int32

	// Completed lists the productions whose items are complete in this
	// state ([A -> alpha .]), in ascending production order. The SLR
	// reduce candidates for a lookahead la are exactly the completed
	// productions whose left side has la in FOLLOW.
	Completed []int32
}

// ShiftTo returns the successor state for symbol sym, or -1.
func (s *State) ShiftTo(sym int) int { return int(s.Shift[sym]) }

// Automaton is the LR(0) collection with SLR lookahead sets.
type Automaton struct {
	G      *grammar.Grammar
	States []*State
	EOF    int // pseudo-symbol: len(G.Syms)

	First  []SymSet // nonterminal -> FIRST set (includes the nonterminal itself); nil for others
	Follow []SymSet // nonterminal -> FOLLOW set; nil for others

	prodsBySym [][]int32 // nonterminal -> production indices, declaration order

	// Closure scratch, epoch-stamped so each buildStates iteration skips
	// the O(items) map rebuilds of the former representation.
	itemStamp []int32 // item key -> epoch when last added to the closure
	ntStamp   []int32 // nonterminal -> epoch when last expanded
	epoch     int32
	maxRHS    int

	closureBuf []Item // closure's working item list, reused across calls
}

// Build constructs the automaton for grammar g, first rejecting grammars
// the skeletal parser could loop on (see CheckLoops).
func Build(g *grammar.Grammar) (*Automaton, error) {
	if len(g.Prods) == 0 {
		return nil, fmt.Errorf("lr: grammar %q has no productions", g.Name)
	}
	if err := CheckLoops(g); err != nil {
		return nil, err
	}
	a := &Automaton{G: g, EOF: len(g.Syms)}
	a.indexProds()
	a.computeFirst()
	a.computeFollow()
	a.buildStates()
	return a, nil
}

// indexProds builds the nonterminal -> productions index and sizes the
// closure scratch.
func (a *Automaton) indexProds() {
	a.prodsBySym = make([][]int32, len(a.G.Syms))
	for i, p := range a.G.Prods {
		a.prodsBySym[p.LHS] = append(a.prodsBySym[p.LHS], int32(i))
		if len(p.RHS) > a.maxRHS {
			a.maxRHS = len(p.RHS)
		}
	}
	a.itemStamp = make([]int32, len(a.G.Prods)*(a.maxRHS+1))
	a.ntStamp = make([]int32, len(a.G.Syms))
}

// prodsFor returns the production indices deriving nonterminal sym, in
// declaration order.
func (a *Automaton) prodsFor(sym int) []int32 { return a.prodsBySym[sym] }

// computeFirst computes FIRST for every nonterminal. Because reduced
// nonterminals are prefixed back onto the input, a nonterminal is itself a
// possible input token and belongs to its own FIRST set. Right sides are
// never empty, so FIRST of a sentential form is FIRST of its head symbol.
func (a *Automaton) computeFirst() {
	n := a.NumSymbols()
	a.First = make([]SymSet, len(a.G.Syms))
	for id, s := range a.G.Syms {
		if s.Kind == grammar.Nonterminal {
			set := NewSymSet(n)
			if id != a.G.Lambda {
				set.Add(id) // the nonterminal token itself
			}
			a.First[id] = set
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range a.G.Prods {
			head := p.RHS[0]
			dst := a.First[p.LHS]
			if src := a.First[head]; src != nil {
				if dst.UnionWith(src) {
					changed = true
				}
			} else if dst.Add(head) {
				changed = true
			}
		}
	}
}

// computeFollow computes FOLLOW for every nonterminal, over the grammar
// augmented with GOAL ::= lambda GOAL | lambda: the input is a sequence of
// statements each deriving lambda, so lambda is followed by the start of
// any statement or by the end marker.
func (a *Automaton) computeFollow() {
	n := a.NumSymbols()
	a.Follow = make([]SymSet, len(a.G.Syms))
	for id, s := range a.G.Syms {
		if s.Kind == grammar.Nonterminal {
			a.Follow[id] = NewSymSet(n)
		}
	}
	lf := a.Follow[a.G.Lambda]
	lf.Add(a.EOF)
	lf.UnionWith(a.First[a.G.Lambda])
	for changed := true; changed; {
		changed = false
		for _, p := range a.G.Prods {
			for i, sym := range p.RHS {
				dst := a.Follow[sym]
				if dst == nil {
					continue
				}
				if i+1 < len(p.RHS) {
					next := p.RHS[i+1]
					if src := a.First[next]; src != nil {
						if dst.UnionWith(src) {
							changed = true
						}
					} else if dst.Add(next) {
						changed = true
					}
				} else if dst.UnionWith(a.Follow[p.LHS]) {
					changed = true
				}
			}
		}
	}
}

// closure extends a kernel to its LR(0) closure. The membership and
// expansion marks live in epoch-stamped arrays shared across calls, and
// the items are gathered in a shared buffer, so a closure costs one
// exactly sized allocation: the returned item slice.
func (a *Automaton) closure(kernel []Item) []Item {
	a.epoch++
	e := a.epoch
	items := append(a.closureBuf[:0], kernel...)
	for _, it := range items {
		a.itemStamp[it.Prod*(a.maxRHS+1)+it.Dot] = e
	}
	for i := 0; i < len(items); i++ {
		it := items[i]
		p := a.G.Prods[it.Prod]
		if it.Dot >= len(p.RHS) {
			continue
		}
		sym := p.RHS[it.Dot]
		if a.G.Syms[sym].Kind != grammar.Nonterminal || a.ntStamp[sym] == e {
			continue
		}
		a.ntStamp[sym] = e
		for _, pi := range a.prodsFor(sym) {
			key := int(pi) * (a.maxRHS + 1)
			if a.itemStamp[key] != e {
				a.itemStamp[key] = e
				items = append(items, Item{Prod: int(pi), Dot: 0})
			}
		}
	}
	a.closureBuf = items
	sortItems(items)
	return append([]Item(nil), items...)
}

// sortItems orders items by (Prod, Dot), a total order on distinct
// items, so the result does not depend on the sort's stability.
func sortItems(items []Item) {
	slices.SortFunc(items, func(x, y Item) int {
		if c := cmp.Compare(x.Prod, y.Prod); c != 0 {
			return c
		}
		return cmp.Compare(x.Dot, y.Dot)
	})
}

// kernelHash is an FNV-1a hash over the kernel's (production, dot) pairs;
// kernels are interned under it so state construction compares a handful
// of candidate item slices instead of materializing a string key per
// GOTO computation.
func kernelHash(kernel []Item) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range kernel {
		h = (h ^ uint64(it.Prod)) * prime64
		h = (h ^ uint64(it.Dot)) * prime64
	}
	return h
}

func sameKernel(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildStates constructs the canonical LR(0) collection. The start state's
// kernel holds an initial item for every lambda production: each statement
// of the IF begins a fresh parse from state 0.
func (a *Automaton) buildStates() {
	nsym := a.NumSymbols()
	var startKernel []Item
	for _, pi := range a.prodsFor(a.G.Lambda) {
		startKernel = append(startKernel, Item{Prod: int(pi), Dot: 0})
	}
	sortItems(startKernel)

	index := map[uint64][]int{} // kernel hash -> candidate state IDs
	// Shift rows are carved from slabs of slabRows rows, filled with -1
	// once per slab rather than allocated and filled per state.
	const slabRows = 64
	var slab []int32
	add := func(kernel []Item) int {
		h := kernelHash(kernel)
		for _, id := range index[h] {
			if sameKernel(a.States[id].Kernel, kernel) {
				return id
			}
		}
		if len(slab) < nsym {
			slab = make([]int32, slabRows*nsym)
			for i := range slab {
				slab[i] = -1
			}
		}
		shift := slab[:nsym:nsym]
		slab = slab[nsym:]
		s := &State{
			ID:     len(a.States),
			Kernel: append([]Item(nil), kernel...),
			Items:  a.closure(kernel),
			Shift:  shift,
		}
		for _, it := range s.Items {
			if it.Dot == len(a.G.Prods[it.Prod].RHS) {
				s.Completed = append(s.Completed, int32(it.Prod))
			}
		}
		index[h] = append(index[h], s.ID)
		a.States = append(a.States, s)
		return s.ID
	}
	add(startKernel)

	// Per-iteration scratch for grouping items by the symbol after the
	// dot: per-symbol item buffers whose capacity persists across states,
	// reset by walking only the symbols actually touched.
	moveOf := make([][]Item, nsym)
	seen := make([]bool, nsym)
	var order []int

	for i := 0; i < len(a.States); i++ {
		s := a.States[i]
		order = order[:0]
		for _, it := range s.Items {
			p := a.G.Prods[it.Prod]
			if it.Dot >= len(p.RHS) {
				continue
			}
			sym := p.RHS[it.Dot]
			if !seen[sym] {
				seen[sym] = true
				order = append(order, sym)
			}
			moveOf[sym] = append(moveOf[sym], Item{Prod: it.Prod, Dot: it.Dot + 1})
		}
		slices.Sort(order)
		for _, sym := range order {
			kernel := moveOf[sym]
			sortItems(kernel)
			s.Shift[sym] = int32(add(kernel))
			moveOf[sym] = moveOf[sym][:0]
			seen[sym] = false
		}
	}
}

// NumSymbols returns the width of the action table: every grammar symbol
// plus the end marker.
func (a *Automaton) NumSymbols() int { return len(a.G.Syms) + 1 }

// SymName names a column, including the end marker.
func (a *Automaton) SymName(sym int) string {
	if sym == a.EOF {
		return "$end"
	}
	return a.G.SymName(sym)
}
