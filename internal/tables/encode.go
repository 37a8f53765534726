package tables

import (
	"encoding/binary"
	"fmt"
	"io"

	"cogg/internal/faultinject"
	"cogg/internal/grammar"
	"cogg/internal/lr"
)

// magic identifies a serialized table module. The trailing digit is the
// format version: any change to the encoding below must bump it, which
// invalidates every cached module on disk (package batch keys its cache
// on FormatVersion).
var magic = [8]byte{'C', 'o', 'G', 'G', 't', 'b', 'l', '1'}

// FormatVersion returns the serialization format identifier (the magic
// string, version digit included). Cache keys for encoded modules must
// incorporate it so a format change can never resurrect stale bytes.
func FormatVersion() string { return string(magic[:]) }

// SectionSizes reports the serialized size of each component of a table
// module, the raw material of the paper's Table 2.
type SectionSizes struct {
	Symbols      int // symbol table bytes
	Templates    int // template array bytes (Table 2 entry i)
	Compressed   int // compressed parse table bytes (entry ii)
	Uncompressed int // uncompressed parse table bytes (entry iii)
	Total        int // bytes actually written (symbols+templates+compressed)
}

// Module bundles everything a code generator needs at translation time.
type Module struct {
	Grammar *grammar.Grammar
	Packed  *Packed

	// Dense, when set, makes generators built from this module dispatch
	// parse actions through the uncompressed table instead of Packed —
	// the space/time ablation knob for the compression experiments. It
	// is never serialized: Encode ignores it and Decode leaves it nil.
	Dense *lr.Table
}

// Encode serializes the module and reports section sizes. Only the
// compressed table is stored; the uncompressed size is accounted for
// comparison.
func Encode(w io.Writer, g *grammar.Grammar, t *lr.Table, p *Packed) (SectionSizes, error) {
	sizes, err := EncodeModule(w, &Module{Grammar: g, Packed: p})
	sizes.Uncompressed = UncompressedSizeBytes(t)
	return sizes, err
}

// EncodeModule serializes a module without an lr.Table in hand — the
// re-encoding path for modules reconstituted by Decode (the uncompressed
// size cannot be accounted and is reported as zero). The byte stream is
// identical to Encode's for the same grammar and packed table.
func EncodeModule(w io.Writer, m *Module) (SectionSizes, error) {
	var sizes SectionSizes
	// The whole stream is appended into one buffer sized up front.
	buf := make([]byte, 0, len(magic)+symbolsSize(m.Grammar)+prodsSize(m.Grammar)+packedSize(m.Packed))
	buf = append(buf, magic[:]...)

	start := len(buf)
	buf = appendSymbols(buf, m.Grammar)
	sizes.Symbols = len(buf) - start

	start = len(buf)
	buf = appendProds(buf, m.Grammar)
	sizes.Templates = len(buf) - start

	start = len(buf)
	buf, err := appendPacked(buf, m.Packed)
	if err != nil {
		return sizes, err
	}
	sizes.Compressed = len(buf) - start

	sizes.Total = len(buf)
	_, err = w.Write(buf)
	return sizes, err
}

// Decode reads a module serialized by Encode from data, which it does
// not retain. Beyond parsing, the decoded module is validated for
// internal consistency — every index the code generator will follow
// blindly at translation time (symbol references, action targets,
// check entries) must be in range — so a corrupt or adversarial byte
// stream yields an error, never a panic in the driver.
func Decode(data []byte) (*Module, error) {
	if err := faultinject.Eval("tables/decode", ""); err != nil {
		return nil, fmt.Errorf("tables: decode: %w", err)
	}
	d := &decoder{b: data}
	if got := d.take(len(magic)); d.err == nil && string(got) != string(magic[:]) {
		return nil, fmt.Errorf("tables: bad magic %q", got)
	}
	// A first pass walks the layout and allocates nothing, so a stream
	// that is truncated or whose counts overrun its bytes fails before
	// anything is sized by them.
	walk := *d
	walk.skim()
	if walk.err != nil {
		return nil, fmt.Errorf("tables: decode: %w", walk.err)
	}
	g := decodeSymbols(d)
	decodeProds(d, g)
	p := decodePacked(d)
	if d.err != nil {
		return nil, fmt.Errorf("tables: decode: %w", d.err)
	}
	m := &Module{Grammar: g, Packed: p}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("tables: decode: %w", err)
	}
	return m, nil
}

// validate checks the cross-references a decoded module's consumers
// follow without bounds checks: the parse loop indexes ColOf by symbol
// id and Base by state, shift targets become states, reduce targets
// become productions, and semantic processing indexes the symbol table
// through production fields.
func (m *Module) validate() error {
	g, p := m.Grammar, m.Packed
	nsym := len(g.Syms)
	if g.Lambda < 0 || g.Lambda >= nsym {
		return fmt.Errorf("lambda symbol %d out of range (%d symbols)", g.Lambda, nsym)
	}
	// The message is formatted only on failure: validation runs on
	// every decode.
	checkSym := func(prod, id int) error {
		if id < 0 || id >= nsym {
			return fmt.Errorf("production %d references symbol %d (have %d)", prod, id, nsym)
		}
		return nil
	}
	for i, prod := range g.Prods {
		if err := checkSym(i, prod.LHS); err != nil {
			return err
		}
		for _, s := range prod.RHS {
			if err := checkSym(i, s); err != nil {
				return err
			}
		}
		for _, u := range prod.Uses {
			if err := checkSym(i, u.Sym); err != nil {
				return err
			}
		}
		for _, u := range prod.Needs {
			if err := checkSym(i, u.Sym); err != nil {
				return err
			}
		}
		for _, t := range prod.Templates {
			for _, o := range t.Operands {
				if err := checkSym(i, o.Base.Sym); err != nil {
					return err
				}
				for _, s := range o.Sub {
					if err := checkSym(i, s.Sym); err != nil {
						return err
					}
				}
			}
		}
	}

	if p.NumStates < 1 {
		return fmt.Errorf("packed table has %d states", p.NumStates)
	}
	if len(p.Base) != p.NumStates {
		return fmt.Errorf("base array holds %d entries for %d states", len(p.Base), p.NumStates)
	}
	if len(p.ColOf) != nsym+1 {
		// One column slot per grammar symbol plus the EOF pseudo-symbol
		// (see lr.Automaton.NumSymbols).
		return fmt.Errorf("column map covers %d symbols, grammar has %d plus EOF", len(p.ColOf), nsym)
	}
	for sym, col := range p.ColOf {
		if col < -1 || int(col) >= p.NumCols {
			return fmt.Errorf("symbol %d maps to column %d of %d", sym, col, p.NumCols)
		}
	}
	if len(p.Data) != len(p.Check) {
		return fmt.Errorf("data and check arrays differ: %d vs %d entries", len(p.Data), len(p.Check))
	}
	for i, c := range p.Check {
		if c < 0 || int(c) > p.NumStates {
			return fmt.Errorf("check entry %d names state %d of %d", i, c-1, p.NumStates)
		}
		if c == 0 {
			continue // free slot; its action is never followed
		}
		// A significant entry is reached only as Base[state]+ColOf[sym],
		// so its displacement from its owner's base must be a real
		// lookahead column; an entry outside [0, NumCols) claims a
		// lookahead symbol beyond the declared universe.
		if col := i - int(p.Base[c-1]); col < 0 || col >= p.NumCols {
			return fmt.Errorf("entry %d of state %d is at lookahead column %d of %d", i, c-1, col, p.NumCols)
		}
		a := p.Data[i]
		switch a.Kind() {
		case lr.Shift:
			if a.Target() >= p.NumStates {
				return fmt.Errorf("entry %d shifts to state %d of %d", i, a.Target(), p.NumStates)
			}
		case lr.Reduce:
			if a.Target() >= len(g.Prods) {
				return fmt.Errorf("entry %d reduces by production %d of %d", i, a.Target(), len(g.Prods))
			}
		}
	}
	return nil
}

// --- encoding helpers -------------------------------------------------

func appendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU32(b, 1)
	}
	return appendU32(b, 0)
}

// symbolsSize, prodsSize and packedSize are the byte counts that
// appendSymbols, appendProds and appendPacked write.
func symbolsSize(g *grammar.Grammar) int {
	n := 4 + len(g.Name) + 4 + 4
	for _, s := range g.Syms {
		n += 4 + len(s.Name) + 4 + 8
	}
	return n
}

func prodsSize(g *grammar.Grammar) int {
	n := 4
	for _, p := range g.Prods {
		n += 4*4 + 8*len(p.RHS) + 4 + 8*len(p.Uses) + 4 + 8*len(p.Needs) + 4
		for _, t := range p.Templates {
			n += 3 * 4
			for _, o := range t.Operands {
				n += argSize + 4 + argSize*len(o.Sub)
			}
		}
	}
	return n
}

// argSize is the encoded width of one grammar.Arg.
const argSize = 3*4 + 8

func packedSize(p *Packed) int { return 6*4 + p.SizeBytes() }

func appendSymbols(b []byte, g *grammar.Grammar) []byte {
	b = appendStr(b, g.Name)
	b = appendU32(b, g.Lambda)
	b = appendU32(b, len(g.Syms))
	for _, s := range g.Syms {
		b = appendStr(b, s.Name)
		b = appendU32(b, int(s.Kind))
		b = appendI64(b, s.Value)
	}
	return b
}

func appendArg(b []byte, a grammar.Arg) []byte {
	b = appendBool(b, a.IsRef)
	b = appendU32(b, a.Sym)
	b = appendU32(b, a.Tag)
	return appendI64(b, a.Num)
}

func appendProds(b []byte, g *grammar.Grammar) []byte {
	b = appendU32(b, len(g.Prods))
	for _, p := range g.Prods {
		b = appendU32(b, p.Num)
		b = appendU32(b, p.LHS)
		b = appendU32(b, p.LHSTag+1) // bias so -1 encodes as 0
		b = appendU32(b, len(p.RHS))
		for i := range p.RHS {
			b = appendU32(b, p.RHS[i])
			b = appendU32(b, p.RHSTags[i]+1)
		}
		b = appendU32(b, len(p.Uses))
		for _, u := range p.Uses {
			b = appendU32(b, u.Sym)
			b = appendU32(b, u.Tag)
		}
		b = appendU32(b, len(p.Needs))
		for _, u := range p.Needs {
			b = appendU32(b, u.Sym)
			b = appendU32(b, u.Tag)
		}
		b = appendU32(b, len(p.Templates))
		for _, t := range p.Templates {
			b = appendU32(b, t.Op)
			b = appendBool(b, t.Semantic)
			b = appendU32(b, len(t.Operands))
			for _, o := range t.Operands {
				b = appendArg(b, o.Base)
				b = appendU32(b, len(o.Sub))
				for _, s := range o.Sub {
					b = appendArg(b, s)
				}
			}
		}
	}
	return b
}

func appendPacked(b []byte, p *Packed) ([]byte, error) {
	b = appendU32(b, p.NumStates)
	b = appendU32(b, p.NumCols)
	b = appendU32(b, len(p.ColOf))
	for _, v := range p.ColOf {
		b = binary.LittleEndian.AppendUint16(b, uint16(v)) // -1 wraps to 0xFFFF
	}
	b = appendU32(b, len(p.Base))
	for _, v := range p.Base {
		b = appendU32(b, int(v))
	}
	b = appendU32(b, len(p.Data))
	for _, v := range p.Data {
		a16, ok := v.Pack16()
		if !ok {
			return b, fmt.Errorf("tables: action target %d exceeds the 14-bit packed form", v.Target())
		}
		b = binary.LittleEndian.AppendUint16(b, a16)
	}
	b = appendU32(b, len(p.Check))
	for _, v := range p.Check {
		if v < 0 || v > 0xFFFF {
			return b, fmt.Errorf("tables: check entry %d exceeds sixteen bits", v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return b, nil
}

// --- decoding helpers -------------------------------------------------

// decoder reads fixed-width little-endian fields off a byte slice. The
// first failure is kept in err, and every later read fails at once and
// yields zero.
type decoder struct {
	b   []byte
	off int // bytes read
	err error
}

// left reports how many bytes remain unread.
func (d *decoder) left() int { return len(d.b) - d.off }

// take consumes the next n bytes, or fails when fewer remain.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.left() {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off : d.off]
}

func (d *decoder) u32() int {
	if p := d.take(4); p != nil {
		return int(int32(binary.LittleEndian.Uint32(p)))
	}
	return 0
}

func (d *decoder) i64() int64 {
	if p := d.take(8); p != nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *decoder) str() string { return string(d.take(d.strLen())) }

// count reads an entry count, each entry at least width bytes long. A
// count past limit, or one claiming more entries than the remaining
// bytes can hold, fails before the caller sizes anything by it.
func (d *decoder) count(limit, width int) int {
	n := d.u32()
	if n < 0 || n > limit || n*width > d.left() {
		d.badCount(n, limit, width)
		return 0
	}
	return n
}

// badCount records why count refused n, unless a read already failed.
// It is apart from count to keep formatting out of the layout walk's
// hot path.
func (d *decoder) badCount(n, limit, width int) {
	switch {
	case d.err != nil:
	case n < 0 || n > limit:
		d.err = fmt.Errorf("count %d out of range (limit %d)", n, limit)
	default:
		d.err = fmt.Errorf("count %d of %d-byte entries exceeds the %d bytes left", n, width, d.left())
	}
}

// entries reads a count of width-byte entries and returns their bytes.
func (d *decoder) entries(width int) (int, []byte) {
	n := d.count(1<<24, width)
	return n, d.take(n * width)
}

// skim reads past a module's sections, after the magic, checking
// every count and length the way the decoders below do but keeping
// nothing. It steps over fixed-width fields unchecked: a step past the
// end fails the next read, and the walk ends with one.
func (d *decoder) skim() {
	d.skip(d.strLen() + 4)
	for n := d.count(1<<20, 4+4+8); n > 0 && d.err == nil; n-- {
		d.skip(d.strLen() + 4 + 8)
	}
	for n := d.count(1<<20, 7*4); n > 0 && d.err == nil; n-- {
		d.skip(3 * 4)
		d.skip(8 * d.count(1<<10, 8)) // RHS
		d.skip(8 * d.count(1<<10, 8)) // Uses
		d.skip(8 * d.count(1<<10, 8)) // Needs
		for t := d.count(1<<10, 3*4); t > 0 && d.err == nil; t-- {
			d.skip(2 * 4)
			for o := d.count(1<<10, argSize+4); o > 0 && d.err == nil; o-- {
				d.skip(argSize)
				d.skip(argSize * d.count(2, argSize))
			}
		}
	}
	d.skip(2 * 4)
	for _, width := range [...]int{2, 4, 2, 2} { // ColOf, Base, Data, Check
		d.entries(width)
	}
}

func (d *decoder) skip(n int) { d.off += n }

// strLen reads a string's length and checks it against its limit.
func (d *decoder) strLen() int {
	n := d.u32()
	if d.err == nil && (n < 0 || n > 1<<20) {
		d.err = fmt.Errorf("string length %d out of range", n)
		return 0
	}
	return n
}

func decodeSymbols(d *decoder) *grammar.Grammar {
	g := &grammar.Grammar{}
	g.Name = d.str()
	g.Lambda = d.u32()
	n := d.count(1<<20, 4+4+8)
	g.Syms = make([]grammar.Symbol, 0, n)
	for i := 0; i < n; i++ {
		name := d.str()
		kind := grammar.Kind(d.u32())
		value := d.i64()
		if d.err != nil {
			return g
		}
		g.AddSymbol(name, kind, value)
	}
	return g
}

func decodeArg(d *decoder) grammar.Arg {
	var a grammar.Arg
	a.IsRef = d.u32() == 1
	a.Sym = d.u32()
	a.Tag = d.u32()
	a.Num = d.i64()
	return a
}

func decodeRefs(d *decoder) []grammar.Ref {
	n := d.count(1<<10, 8)
	if n == 0 {
		return nil
	}
	refs := make([]grammar.Ref, n)
	for i := range refs {
		refs[i] = grammar.Ref{Sym: d.u32(), Tag: d.u32()}
	}
	return refs
}

func decodeProds(d *decoder, g *grammar.Grammar) {
	n := d.count(1<<20, 7*4)
	if n == 0 {
		return
	}
	prods := make([]grammar.Prod, n)
	g.Prods = make([]*grammar.Prod, n)
	for i := range prods {
		p := &prods[i]
		g.Prods[i] = p
		p.Num = d.u32()
		p.LHS = d.u32()
		p.LHSTag = d.u32() - 1
		if rhsLen := d.count(1<<10, 8); rhsLen > 0 {
			p.RHS = make([]int, rhsLen)
			p.RHSTags = make([]int, rhsLen)
			for j := range p.RHS {
				p.RHS[j] = d.u32()
				p.RHSTags[j] = d.u32() - 1
			}
		}
		p.Uses = decodeRefs(d)
		p.Needs = decodeRefs(d)
		if tmpls := d.count(1<<10, 3*4); tmpls > 0 {
			p.Templates = make([]grammar.Template, tmpls)
			for j := range p.Templates {
				t := &p.Templates[j]
				t.Op = d.u32()
				t.Semantic = d.u32() == 1
				if operands := d.count(1<<10, argSize+4); operands > 0 {
					t.Operands = make([]grammar.Operand, operands)
					for k := range t.Operands {
						o := &t.Operands[k]
						o.Base = decodeArg(d)
						if subs := d.count(2, argSize); subs > 0 {
							o.Sub = make([]grammar.Arg, subs)
							for m := range o.Sub {
								o.Sub[m] = decodeArg(d)
							}
						}
					}
				}
			}
		}
		if d.err != nil {
			return
		}
	}
}

func decodePacked(d *decoder) *Packed {
	p := &Packed{}
	p.NumStates = d.u32()
	p.NumCols = d.u32()
	n, b := d.entries(2)
	p.ColOf = make([]int32, n)
	for i := range p.ColOf {
		p.ColOf[i] = int32(int16(binary.LittleEndian.Uint16(b[2*i:])))
	}
	n, b = d.entries(4)
	p.Base = make([]int32, n)
	for i := range p.Base {
		p.Base[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	n, b = d.entries(2)
	p.Data = make([]lr.Action, n)
	for i := range p.Data {
		p.Data[i] = lr.Unpack16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	n, b = d.entries(2)
	p.Check = make([]int32, n)
	for i := range p.Check {
		p.Check[i] = int32(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return p
}
