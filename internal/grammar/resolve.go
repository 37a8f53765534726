package grammar

import (
	"fmt"

	"cogg/internal/spec"
)

// Names of the register-management semantic operators, which receive
// special treatment during resolution: `using` and `need` *introduce*
// register bindings that later templates (and the LHS) may reference.
const (
	semUsing = "using"
	semNeed  = "need"
)

// Resolve builds the typed grammar from a parsed specification,
// performing the class checks described in section 2 of the paper.
func Resolve(f *spec.File) (*Grammar, error) {
	g := &Grammar{Name: f.Name, byName: make(map[string]int)}

	// lambda is predeclared: the empty left side of statement productions.
	g.Lambda = g.intern("lambda", Nonterminal, 0, "empty left side")

	enter := func(decls []spec.Decl, kind Kind) error {
		for _, d := range decls {
			if _, dup := g.byName[d.Name]; dup {
				return errAt(f, d.Line, "symbol %q already declared", d.Name)
			}
			k := kind
			if kind == Constant && !d.HasValue {
				k = Semantic
			}
			g.intern(d.Name, k, d.Value, d.Alias)
		}
		return nil
	}
	if err := enter(f.Nonterminals, Nonterminal); err != nil {
		return nil, err
	}
	if err := enter(f.Terminals, Terminal); err != nil {
		return nil, err
	}
	if err := enter(f.Operators, Operator); err != nil {
		return nil, err
	}
	if err := enter(f.Opcodes, Opcode); err != nil {
		return nil, err
	}
	if err := enter(f.Constants, Constant); err != nil {
		return nil, err
	}

	for i := range f.Productions {
		p, err := g.resolveProd(f, &f.Productions[i])
		if err != nil {
			return nil, err
		}
		g.Prods = append(g.Prods, p)
	}
	return g, nil
}

func (g *Grammar) intern(name string, kind Kind, value int64, alias string) int {
	id := len(g.Syms)
	g.Syms = append(g.Syms, Symbol{ID: id, Name: name, Kind: kind, Value: value, Alias: alias})
	g.byName[name] = id
	return id
}

func (g *Grammar) resolveProd(f *spec.File, sp *spec.Production) (*Prod, error) {
	p := &Prod{Num: sp.Num, Line: sp.Line}

	// Left side: lambda or a tagged nonterminal.
	lhsID, ok := g.byName[sp.LHS.Name]
	if !ok {
		return nil, errAt(f, sp.Line, "undeclared left side %q", sp.LHS.Name)
	}
	if g.Syms[lhsID].Kind != Nonterminal {
		return nil, errAt(f, sp.Line, "left side %q is a %s; productions derive nonterminals",
			sp.LHS.Name, g.Syms[lhsID].Kind)
	}
	p.LHS = lhsID
	p.LHSTag = -1
	if lhsID != g.Lambda {
		if !sp.LHS.HasTag {
			return nil, errAt(f, sp.Line, "nonterminal left side %q requires a tag (e.g. %s.1)",
				sp.LHS.Name, sp.LHS.Name)
		}
		p.LHSTag = sp.LHS.Tag
	} else if sp.LHS.HasTag {
		return nil, errAt(f, sp.Line, "lambda left side cannot carry a tag")
	}

	// Right side: operators (untagged), terminals and nonterminals (tagged).
	// bound records the tagged occurrences available to template operands.
	bound := map[Ref]bool{}
	p.RHS = make([]int, 0, len(sp.RHS))
	p.RHSTags = make([]int, 0, len(sp.RHS))
	for _, r := range sp.RHS {
		id, ok := g.byName[r.Name]
		if !ok {
			return nil, errAt(f, sp.Line, "undeclared symbol %q in production %d", r.Name, sp.Num)
		}
		switch g.Syms[id].Kind {
		case Operator:
			if r.HasTag {
				return nil, errAt(f, sp.Line, "operator %q cannot carry a tag", r.Name)
			}
			p.RHS = append(p.RHS, id)
			p.RHSTags = append(p.RHSTags, -1)
		case Terminal, Nonterminal:
			if id == g.Lambda {
				return nil, errAt(f, sp.Line, "lambda cannot appear on a right side")
			}
			if !r.HasTag {
				return nil, errAt(f, sp.Line, "%s %q on a right side requires a tag",
					g.Syms[id].Kind, r.Name)
			}
			ref := Ref{Sym: id, Tag: r.Tag}
			if bound[ref] {
				return nil, errAt(f, sp.Line, "duplicate occurrence %s.%d in production %d",
					r.Name, r.Tag, sp.Num)
			}
			bound[ref] = true
			p.RHS = append(p.RHS, id)
			p.RHSTags = append(p.RHSTags, r.Tag)
		default:
			return nil, errAt(f, sp.Line, "%s %q cannot appear in a production right side",
				g.Syms[id].Kind, r.Name)
		}
	}

	// First pass over templates: `using` and `need` introduce register
	// bindings. All registers for the production are allocated at once
	// before any template is acted upon (paper section 4.1), so bindings
	// are visible to every template regardless of order.
	for _, t := range sp.Templates {
		opID, ok := g.byName[t.Op]
		if !ok {
			continue // reported in the second pass
		}
		name := g.Syms[opID].Name
		if name != semUsing && name != semNeed {
			continue
		}
		for _, o := range t.Operands {
			if len(o.Sub) != 0 || o.Base.Kind != spec.AtomRef {
				return nil, errAt(f, t.Line, "%s operands must be tagged register references", name)
			}
			id, ok := g.byName[o.Base.Name]
			if !ok || g.Syms[id].Kind != Nonterminal || id == g.Lambda {
				return nil, errAt(f, t.Line, "%s operand %q is not a register class", name, o.Base.Name)
			}
			ref := Ref{Sym: id, Tag: o.Base.Tag}
			if bound[ref] {
				return nil, errAt(f, t.Line, "%s re-binds %s.%d, already bound in production %d",
					name, o.Base.Name, o.Base.Tag, sp.Num)
			}
			bound[ref] = true
			if name == semUsing {
				p.Uses = append(p.Uses, ref)
			} else {
				p.Needs = append(p.Needs, ref)
			}
		}
	}

	// The LHS reference must be bound: it repeats an RHS occurrence
	// (r.1 ::= iadd r.1 r.2), a template allocates it (using r.2), or —
	// for class-conversion productions like the paper's "r.l ::= d.l" —
	// a right-side nonterminal of another class carries the same tag
	// and its value transfers.
	if p.LHS != g.Lambda && !bound[Ref{Sym: p.LHS, Tag: p.LHSTag}] {
		converted := false
		for ref := range bound {
			if ref.Tag == p.LHSTag && g.Syms[ref.Sym].Kind == Nonterminal {
				converted = true
			}
		}
		if !converted {
			return nil, errAt(f, sp.Line,
				"left side %s.%d of production %d is bound neither by the right side nor by using/need",
				sp.LHS.Name, p.LHSTag, sp.Num)
		}
	}

	// Second pass: resolve every template.
	emitted := 0
	p.Templates = make([]Template, 0, len(sp.Templates))
	for _, t := range sp.Templates {
		rt, err := g.resolveTemplate(f, sp, &t, bound)
		if err != nil {
			return nil, err
		}
		if !rt.Semantic {
			emitted++
		}
		p.Templates = append(p.Templates, rt)
	}
	if emitted > spec.MaxInstructions {
		return nil, errAt(f, sp.Line,
			"production %d emits %d machine instructions; at most %d may be emitted per reduction",
			sp.Num, emitted, spec.MaxInstructions)
	}
	return p, nil
}

func (g *Grammar) resolveTemplate(f *spec.File, sp *spec.Production, t *spec.Template, bound map[Ref]bool) (Template, error) {
	opID, ok := g.byName[t.Op]
	if !ok {
		return Template{}, errAt(f, t.Line, "undeclared template opcode %q", t.Op)
	}
	rt := Template{Op: opID, Line: t.Line}
	switch g.Syms[opID].Kind {
	case Opcode:
	case Semantic:
		rt.Semantic = true
	default:
		return Template{}, errAt(f, t.Line,
			"template opcode %q is a %s; it must be a target opcode or a semantic operator",
			t.Op, g.Syms[opID].Kind)
	}
	rt.Operands = make([]Operand, 0, len(t.Operands))
	for _, o := range t.Operands {
		ro, err := g.resolveOperand(f, sp, t, o, bound)
		if err != nil {
			return Template{}, err
		}
		rt.Operands = append(rt.Operands, ro)
	}
	return rt, nil
}

func (g *Grammar) resolveOperand(f *spec.File, sp *spec.Production, t *spec.Template, o spec.Operand, bound map[Ref]bool) (Operand, error) {
	var ro Operand
	var err error
	isNeed := g.Syms[g.byName[t.Op]].Name == semNeed
	ro.Base, err = g.resolveArg(f, sp, t, o.Base, bound, isNeed)
	if err != nil {
		return ro, err
	}
	for _, a := range o.Sub {
		ra, err := g.resolveArg(f, sp, t, a, bound, false)
		if err != nil {
			return ro, err
		}
		ro.Sub = append(ro.Sub, ra)
	}
	return ro, nil
}

func (g *Grammar) resolveArg(f *spec.File, sp *spec.Production, t *spec.Template, a spec.Atom, bound map[Ref]bool, introduces bool) (Arg, error) {
	switch a.Kind {
	case spec.AtomNum:
		return Arg{Num: a.Num}, nil
	case spec.AtomName:
		id, ok := g.byName[a.Name]
		if !ok {
			return Arg{}, errAt(f, t.Line, "undeclared operand %q", a.Name)
		}
		if g.Syms[id].Kind != Constant {
			return Arg{}, errAt(f, t.Line,
				"operand %q is a %s; untagged operands must be numeric constants",
				a.Name, g.Syms[id].Kind)
		}
		return Arg{Sym: id, Num: g.Syms[id].Value}, nil
	default: // spec.AtomRef
		id, ok := g.byName[a.Name]
		if !ok {
			return Arg{}, errAt(f, t.Line, "undeclared operand %q", a.Name)
		}
		k := g.Syms[id].Kind
		if k != Terminal && k != Nonterminal || id == g.Lambda {
			return Arg{}, errAt(f, t.Line,
				"tagged operand %s.%d must reference a terminal or register class, not a %s",
				a.Name, a.Tag, k)
		}
		ref := Ref{Sym: id, Tag: a.Tag}
		if !bound[ref] && !introduces {
			return Arg{}, errAt(f, t.Line,
				"operand %s.%d is not bound in production %d (not on the right side, the left side, or allocated by using/need)",
				a.Name, a.Tag, sp.Num)
		}
		return Arg{IsRef: true, Sym: id, Tag: a.Tag}, nil
	}
}

func errAt(f *spec.File, line int, format string, args ...any) error {
	return &spec.Error{File: f.Name, Line: line, Msg: fmt.Sprintf(format, args...)}
}
