package lr

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates parse actions.
type Kind uint8

const (
	// Error marks an insignificant table entry: the IF token cannot occur
	// here, and the generated code generator stops and signals an error
	// rather than emitting an incorrect instruction sequence.
	Error Kind = iota
	Shift
	Reduce
	Accept
)

// Action is one packed parse-table entry.
type Action int32

// MkAction packs a kind and target.
func MkAction(k Kind, target int) Action { return Action(int32(k)<<28 | int32(target)) }

// Kind returns the action's kind.
func (a Action) Kind() Kind { return Kind(a >> 28) }

// Target returns the successor state (Shift) or production index (Reduce).
func (a Action) Target() int { return int(a & 0x0FFFFFFF) }

// Pack16 narrows an action to sixteen bits (2-bit kind, 14-bit target)
// for the compressed table's data array. ok is false when the target
// does not fit.
func (a Action) Pack16() (uint16, bool) {
	if a.Target() >= 1<<14 {
		return 0, false
	}
	return uint16(a.Kind())<<14 | uint16(a.Target()), true
}

// Unpack16 widens a 16-bit packed action.
func Unpack16(v uint16) Action { return MkAction(Kind(v>>14), int(v&0x3FFF)) }

func (a Action) String() string {
	switch a.Kind() {
	case Shift:
		return fmt.Sprintf("s%d", a.Target())
	case Reduce:
		return fmt.Sprintf("r%d", a.Target())
	case Accept:
		return "acc"
	default:
		return "."
	}
}

// ConflictKind labels a resolved table conflict.
type ConflictKind uint8

const (
	ShiftReduce ConflictKind = iota
	ReduceReduce
)

// Conflict records one ambiguity resolved during table construction; the
// resolutions implement maximal munch and specification-order preference,
// so conflicts are expected and reported only for diagnostics.
type Conflict struct {
	Kind   ConflictKind
	State  int
	Sym    int
	Chosen Action
	Losers []int // losing production indices
}

// Table is the resolved action table driving the skeletal parser. Its X
// dimension counts only the symbols which can be encountered in the IF
// during a parse (operators, shaper terminals, prefixed-back
// nonterminals, and the end marker); opcodes and constants never reach
// the parser and get no column (entry ii of the paper's Table 1).
type Table struct {
	NumStates int
	NumCols   int // X dimension
	EOF       int // end-marker symbol id: len(grammar symbols)
	Lambda    int

	// ColOf maps a symbol id (or EOF) to its column, -1 for symbols that
	// cannot occur in the IF.
	ColOf []int32

	actions []Action // row-major, NumStates x NumCols

	Conflicts []Conflict
}

// Lookup returns the action for (state, symbol id).
func (t *Table) Lookup(state, sym int) Action {
	col := t.ColOf[sym]
	if col < 0 {
		return MkAction(Error, 0)
	}
	return t.actions[state*t.NumCols+int(col)]
}

// Rows exposes the raw action matrix for packing and serialization.
func (t *Table) Rows() []Action { return t.actions }

// Row returns the action row for one state, indexed by column.
func (t *Table) Row(state int) []Action {
	return t.actions[state*t.NumCols : (state+1)*t.NumCols]
}

// SignificantEntries counts the non-error entries (entry v of Table 1).
func (t *Table) SignificantEntries() int {
	n := 0
	for _, a := range t.actions {
		if a.Kind() != Error {
			n++
		}
	}
	return n
}

// Entries returns the total number of parse table entries (entry iv).
func (t *Table) Entries() int { return len(t.actions) }

// MakeTable resolves the automaton's conflicts and produces the action
// table.
func (a *Automaton) MakeTable() *Table {
	t := &Table{
		NumStates: len(a.States),
		EOF:       a.EOF,
		Lambda:    a.G.Lambda,
		ColOf:     make([]int32, a.NumSymbols()),
	}

	// Assign columns to the symbols encounterable in the IF: everything
	// that appears in some state's shift actions or reduce lookaheads,
	// plus the end marker. The reduce lookaheads of a state are the
	// union of FOLLOW over its completed productions' left sides.
	for i := range t.ColOf {
		t.ColOf[i] = -1
	}
	occurs := NewSymSet(a.NumSymbols())
	for _, s := range a.States {
		for sym, next := range s.Shift {
			if next >= 0 {
				occurs.Add(sym)
			}
		}
		for _, pi := range s.Completed {
			occurs.UnionWith(a.Follow[a.G.Prods[pi].LHS])
		}
	}
	occurs.Add(a.EOF)
	occurs.ForEach(func(sym int) {
		t.ColOf[sym] = int32(t.NumCols)
		t.NumCols++
	})

	t.actions = make([]Action, t.NumStates*t.NumCols)
	// cands collects the reduce candidates per lookahead symbol for one
	// state; candSyms lists the lookaheads touched, for resetting.
	cands := make([][]int, a.NumSymbols())
	candSeen := make([]bool, a.NumSymbols())
	var candSyms, loserPool []int
	for _, s := range a.States {
		row := t.Row(s.ID)
		for sym, next := range s.Shift {
			if next >= 0 {
				row[t.ColOf[sym]] = MkAction(Shift, int(next))
			}
		}
		// Completed is in ascending production order, so each lookahead's
		// candidate list accumulates sorted — matching the former
		// map-of-sorted-slices representation entry for entry.
		candSyms = candSyms[:0]
		for _, pi := range s.Completed {
			a.Follow[a.G.Prods[pi].LHS].ForEach(func(la int) {
				if !candSeen[la] {
					candSeen[la] = true
					candSyms = append(candSyms, la)
				}
				cands[la] = append(cands[la], int(pi))
			})
		}
		sort.Ints(candSyms)
		for _, sym := range candSyms {
			cs := cands[sym]
			cands[sym] = cs[:0] // reuse capacity unless retained below
			candSeen[sym] = false
			col := t.ColOf[sym]
			if row[col].Kind() == Shift {
				// Shift/reduce: shift, matching the largest subtree. The
				// candidate list is retained as the conflict's losers, so
				// give up its buffer.
				cands[sym] = nil
				t.Conflicts = append(t.Conflicts, Conflict{
					Kind: ShiftReduce, State: s.ID, Sym: sym,
					Chosen: row[col], Losers: cs,
				})
				continue
			}
			best := a.bestReduce(cs)
			row[col] = MkAction(Reduce, best)
			if len(cs) > 1 {
				// Reduce/reduce losers are carved from a shared pool
				// rather than allocated per conflict.
				if cap(loserPool)-len(loserPool) < len(cs)-1 {
					loserPool = make([]int, 0, max(1024, len(cs)-1))
				}
				start := len(loserPool)
				for _, c := range cs {
					if c != best {
						loserPool = append(loserPool, c)
					}
				}
				losers := loserPool[start:len(loserPool):len(loserPool)]
				t.Conflicts = append(t.Conflicts, Conflict{
					Kind: ReduceReduce, State: s.ID, Sym: sym,
					Chosen: row[col], Losers: losers,
				})
			}
		}
	}
	// End of input with the stack back at the start state: accept.
	t.actions[0*t.NumCols+int(t.ColOf[a.EOF])] = MkAction(Accept, 0)
	return t
}

// bestReduce applies the reduce/reduce preference: longest right side,
// then earliest declaration.
func (a *Automaton) bestReduce(cands []int) int {
	best := cands[0]
	for _, c := range cands[1:] {
		pb, pc := a.G.Prods[best], a.G.Prods[c]
		if len(pc.RHS) > len(pb.RHS) || len(pc.RHS) == len(pb.RHS) && pc.Num < pb.Num {
			best = c
		}
	}
	return best
}

// Describe renders a human-readable summary of one state, for spec
// debugging (cmd/cogg -state).
func (a *Automaton) Describe(stateID int) string {
	s := a.States[stateID]
	var b strings.Builder
	fmt.Fprintf(&b, "state %d\n", s.ID)
	for _, it := range s.Items {
		p := a.G.Prods[it.Prod]
		fmt.Fprintf(&b, "  %s ::=", a.G.SymName(p.LHS))
		for i, sym := range p.RHS {
			if i == it.Dot {
				b.WriteString(" .")
			}
			b.WriteString(" " + a.G.SymName(sym))
		}
		if it.Dot == len(p.RHS) {
			b.WriteString(" .")
		}
		fmt.Fprintf(&b, "   (%d)\n", p.Num)
	}
	return b.String()
}
