package spec

import (
	"strconv"
	"strings"
)

// MaxInstructions is the maximum number of machine instructions one
// production may emit ("currently up to eight machine instructions may be
// emitted during a single reduction", paper section 2). Semantic operator
// lines do not count against it; MaxTemplates bounds the total lines.
const (
	MaxInstructions = 8
	MaxTemplates    = 16
)

// Parse reads a specification from source text. name is used in
// diagnostics.
func Parse(name, src string) (*File, error) {
	p := &parser{
		file:     &File{Name: name},
		name:     name,
		declared: map[string]bool{"lambda": true},
	}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		if err := p.line(i+1, raw); err != nil {
			return nil, err
		}
	}
	if err := p.finishProduction(); err != nil {
		return nil, err
	}
	if len(p.file.Productions) == 0 {
		return nil, errf(name, 0, "specification declares no productions")
	}
	return p.file, nil
}

type parser struct {
	file     *File
	name     string
	section  string
	declared map[string]bool // every declared identifier, for operand recognition
	cur      *Production     // production being assembled, if any
}

func (p *parser) line(n int, raw string) error {
	line := strings.TrimRight(raw, " \t\r")
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "*") {
		return nil
	}
	if strings.HasPrefix(trimmed, "$") {
		return p.sectionHeader(n, trimmed)
	}
	switch p.section {
	case "":
		return errf(p.name, n, "text before first $ section header: %q", trimmed)
	case "options":
		return nil // option lines are accepted and ignored
	case "productions":
		return p.productionLine(n, line)
	default:
		return p.declLine(n, trimmed)
	}
}

func (p *parser) sectionHeader(n int, trimmed string) error {
	name := strings.ToLower(strings.TrimPrefix(trimmed, "$"))
	name = strings.ReplaceAll(name, "-", "")
	switch name {
	case "options":
		p.section = "options"
	case "nonterminals", "terminals", "operators", "opcodes", "constants":
		p.section = name
	case "productions":
		p.section = "productions"
	default:
		return errf(p.name, n, "unknown section header %q", trimmed)
	}
	return nil
}

// declLine parses one line of a declaration section. Two forms exist:
// a single declaration with a descriptive alias ("dbl = double_register
// Even/odd pair for multiply, divide, MVCL."), which owns the whole line
// including any punctuation in its description; and a comma- or
// semicolon-separated list of plain or numeric declarations
// ("zero = 0, one = 1" or "spm, balr, bctr").
func (p *parser) declLine(n int, line string) error {
	if name, rest, ok := strings.Cut(line, "="); ok {
		name = strings.TrimSpace(name)
		first, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		first = strings.TrimRight(first, ",;")
		if _, err := strconv.ParseInt(first, 10, 64); err != nil && isIdent(name) {
			d, err := p.parseDecl(n, line)
			if err != nil {
				return err
			}
			return p.enterDecl(n, d)
		}
	}
	items := strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ';' })
	for _, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		d, err := p.parseDecl(n, item)
		if err != nil {
			return err
		}
		if err := p.enterDecl(n, d); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) enterDecl(n int, d Decl) error {
	if p.declared[d.Name] {
		return errf(p.name, n, "symbol %q declared more than once", d.Name)
	}
	p.declared[d.Name] = true
	switch p.section {
	case "nonterminals":
		p.file.Nonterminals = append(p.file.Nonterminals, d)
	case "terminals":
		p.file.Terminals = append(p.file.Terminals, d)
	case "operators":
		p.file.Operators = append(p.file.Operators, d)
	case "opcodes":
		p.file.Opcodes = append(p.file.Opcodes, d)
	case "constants":
		p.file.Constants = append(p.file.Constants, d)
	}
	return nil
}

func (p *parser) parseDecl(n int, item string) (Decl, error) {
	d := Decl{Line: n}
	name, rest, hasEq := strings.Cut(item, "=")
	d.Name = strings.TrimSpace(name)
	if !isIdent(d.Name) {
		return d, errf(p.name, n, "invalid identifier %q", d.Name)
	}
	if hasEq {
		rest = strings.TrimSpace(rest)
		first, _, _ := strings.Cut(rest, " ")
		if v, err := strconv.ParseInt(first, 10, 64); err == nil {
			d.HasValue = true
			d.Value = v
		} else {
			d.Alias = rest
		}
	}
	return d, nil
}

// productionLine handles one line of the production section. Production
// lines begin in column one; template lines are indented.
func (p *parser) productionLine(n int, line string) error {
	indented := line[0] == ' ' || line[0] == '\t'
	if !indented {
		if err := p.finishProduction(); err != nil {
			return err
		}
		return p.startProduction(n, line)
	}
	if p.cur == nil {
		return errf(p.name, n, "template line outside a production")
	}
	return p.templateLine(n, strings.TrimSpace(line))
}

func (p *parser) finishProduction() error {
	if p.cur == nil {
		return nil
	}
	if len(p.cur.Templates) > MaxTemplates {
		return errf(p.name, p.cur.Line,
			"production %d has %d templates; at most %d machine instructions may be emitted per reduction",
			p.cur.Num, len(p.cur.Templates), MaxTemplates)
	}
	p.file.Productions = append(p.file.Productions, *p.cur)
	p.cur = nil
	return nil
}

func (p *parser) startProduction(n int, line string) error {
	lhsText, rhsText, ok := strings.Cut(line, "::=")
	if !ok {
		return errf(p.name, n, "production line missing '::=': %q", strings.TrimSpace(line))
	}
	lhs, err := p.parseSymRef(n, strings.TrimSpace(lhsText))
	if err != nil {
		return err
	}
	prod := &Production{Num: len(p.file.Productions) + 1, Line: n, LHS: lhs}
	for _, f := range strings.Fields(rhsText) {
		ref, err := p.parseSymRef(n, f)
		if err != nil {
			return err
		}
		prod.RHS = append(prod.RHS, ref)
	}
	if len(prod.RHS) == 0 {
		return errf(p.name, n, "production %s has an empty right side", lhs)
	}
	p.cur = prod
	return nil
}

func (p *parser) parseSymRef(n int, text string) (SymRef, error) {
	name, tagText, hasDot := strings.Cut(text, ".")
	if !isIdent(name) {
		return SymRef{}, errf(p.name, n, "invalid symbol reference %q", text)
	}
	ref := SymRef{Name: name}
	if hasDot {
		tag, err := strconv.Atoi(tagText)
		if err != nil || tag < 0 {
			return SymRef{}, errf(p.name, n, "invalid tag in symbol reference %q", text)
		}
		ref.Tag = tag
		ref.HasTag = true
	}
	return ref, nil
}

// templateLine parses "op [operands] [comment...]". The operand field is a
// single whitespace-free token; it is distinguished from a trailing comment
// by checking that every atom names a declared symbol or is numeric.
func (p *parser) templateLine(n int, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	t := Template{Line: n, Op: fields[0]}
	if !isIdent(t.Op) {
		return errf(p.name, n, "invalid template opcode %q", t.Op)
	}
	rest := fields[1:]
	if len(rest) > 0 {
		if ops, ok := p.tryOperands(rest[0]); ok {
			t.Operands = ops
			rest = rest[1:]
		}
	}
	if len(rest) > 0 {
		t.Comment = strings.Join(rest, " ")
	}
	p.cur.Templates = append(p.cur.Templates, t)
	return nil
}

// tryOperands attempts to parse text as a comma-separated operand list in
// which every named atom is declared. On failure the text is a comment.
func (p *parser) tryOperands(text string) ([]Operand, bool) {
	var ops []Operand
	for len(text) > 0 {
		op, rest, ok := p.parseOperand(text)
		if !ok {
			return nil, false
		}
		ops = append(ops, op)
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return nil, false
		}
		text = rest[1:]
	}
	return ops, len(ops) > 0
}

func (p *parser) parseOperand(text string) (Operand, string, bool) {
	var op Operand
	var ok bool
	op.Base, text, ok = p.parseAtom(text)
	if !ok {
		return op, "", false
	}
	if len(text) > 0 && text[0] == '(' {
		text = text[1:]
		for {
			var a Atom
			a, text, ok = p.parseAtom(text)
			if !ok || len(text) == 0 {
				return op, "", false
			}
			op.Sub = append(op.Sub, a)
			if text[0] == ',' {
				text = text[1:]
				continue
			}
			if text[0] == ')' {
				text = text[1:]
				break
			}
			return op, "", false
		}
		if len(op.Sub) > 2 {
			return op, "", false
		}
	}
	return op, text, true
}

func (p *parser) parseAtom(text string) (Atom, string, bool) {
	i := 0
	for i < len(text) && isAtomChar(text[i]) {
		i++
	}
	if i == 0 {
		return Atom{}, "", false
	}
	word, rest := text[:i], text[i:]
	// Only a word that starts with a digit can be a number; testing
	// that first spares every name a failed ParseInt and its error.
	if word[0] >= '0' && word[0] <= '9' {
		if v, err := strconv.ParseInt(word, 10, 64); err == nil {
			return Atom{Kind: AtomNum, Num: v}, rest, true
		}
	}
	name, tagText, hasDot := strings.Cut(word, ".")
	if !p.declared[name] {
		return Atom{}, "", false
	}
	if hasDot {
		tag, err := strconv.Atoi(tagText)
		if err != nil {
			return Atom{}, "", false
		}
		return Atom{Kind: AtomRef, Name: name, Tag: tag}, rest, true
	}
	return Atom{Kind: AtomName, Name: name}, rest, true
}

func isAtomChar(c byte) bool {
	return c == '_' || c == '.' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	if c := s[0]; !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}
