package tables

import (
	"bytes"
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
	var buf bytes.Buffer
	buf.Write(magic[:])

	start := buf.Len()
	encodeSymbols(&buf, m.Grammar)
	sizes.Symbols = buf.Len() - start

	start = buf.Len()
	encodeProds(&buf, m.Grammar)
	sizes.Templates = buf.Len() - start

	start = buf.Len()
	if err := encodePacked(&buf, m.Packed); err != nil {
		return sizes, err
	}
	sizes.Compressed = buf.Len() - start

	sizes.Total = buf.Len()
	_, err := w.Write(buf.Bytes())
	return sizes, err
}

// Decode reads a module serialized by Encode. Beyond parsing, the
// decoded module is validated for internal consistency — every index
// the code generator will follow blindly at translation time (symbol
// references, action targets, check entries) must be in range — so a
// corrupt or adversarial byte stream yields an error, never a panic in
// the driver.
func Decode(r io.Reader) (*Module, error) {
	if err := faultinject.Eval("tables/decode", ""); err != nil {
		return nil, fmt.Errorf("tables: decode: %w", err)
	}
	d := &decoder{r: r}
	var got [8]byte
	d.bytes(got[:])
	if d.err == nil && got != magic {
		return nil, fmt.Errorf("tables: bad magic %q", got[:])
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
	checkSym := func(what string, id int) error {
		if id < 0 || id >= nsym {
			return fmt.Errorf("%s references symbol %d (have %d)", what, id, nsym)
		}
		return nil
	}
	for i, prod := range g.Prods {
		what := fmt.Sprintf("production %d", i)
		if err := checkSym(what, prod.LHS); err != nil {
			return err
		}
		for _, s := range prod.RHS {
			if err := checkSym(what, s); err != nil {
				return err
			}
		}
		for _, u := range prod.Uses {
			if err := checkSym(what, u.Sym); err != nil {
				return err
			}
		}
		for _, u := range prod.Needs {
			if err := checkSym(what, u.Sym); err != nil {
				return err
			}
		}
		for _, t := range prod.Templates {
			for _, o := range t.Operands {
				if err := checkSym(what, o.Base.Sym); err != nil {
					return err
				}
				for _, s := range o.Sub {
					if err := checkSym(what, s.Sym); err != nil {
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

func putU16(buf *bytes.Buffer, v uint16) {
	buf.WriteByte(byte(v))
	buf.WriteByte(byte(v >> 8))
}

func putU32(buf *bytes.Buffer, v int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	buf.Write(b[:])
}

func putI64(buf *bytes.Buffer, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	buf.Write(b[:])
}

func putStr(buf *bytes.Buffer, s string) {
	putU32(buf, len(s))
	buf.WriteString(s)
}

func encodeSymbols(buf *bytes.Buffer, g *grammar.Grammar) {
	putStr(buf, g.Name)
	putU32(buf, g.Lambda)
	putU32(buf, len(g.Syms))
	for _, s := range g.Syms {
		putStr(buf, s.Name)
		putU32(buf, int(s.Kind))
		putI64(buf, s.Value)
	}
}

func encodeArg(buf *bytes.Buffer, a grammar.Arg) {
	flag := 0
	if a.IsRef {
		flag = 1
	}
	putU32(buf, flag)
	putU32(buf, a.Sym)
	putU32(buf, a.Tag)
	putI64(buf, a.Num)
}

func encodeProds(buf *bytes.Buffer, g *grammar.Grammar) {
	putU32(buf, len(g.Prods))
	for _, p := range g.Prods {
		putU32(buf, p.Num)
		putU32(buf, p.LHS)
		putU32(buf, p.LHSTag+1) // bias so -1 encodes as 0
		putU32(buf, len(p.RHS))
		for i := range p.RHS {
			putU32(buf, p.RHS[i])
			putU32(buf, p.RHSTags[i]+1)
		}
		putU32(buf, len(p.Uses))
		for _, u := range p.Uses {
			putU32(buf, u.Sym)
			putU32(buf, u.Tag)
		}
		putU32(buf, len(p.Needs))
		for _, u := range p.Needs {
			putU32(buf, u.Sym)
			putU32(buf, u.Tag)
		}
		putU32(buf, len(p.Templates))
		for _, t := range p.Templates {
			putU32(buf, t.Op)
			sem := 0
			if t.Semantic {
				sem = 1
			}
			putU32(buf, sem)
			putU32(buf, len(t.Operands))
			for _, o := range t.Operands {
				encodeArg(buf, o.Base)
				putU32(buf, len(o.Sub))
				for _, s := range o.Sub {
					encodeArg(buf, s)
				}
			}
		}
	}
}

func encodePacked(buf *bytes.Buffer, p *Packed) error {
	buf.Grow(4*6 + 2*len(p.ColOf) + 4*len(p.Base) + 2*len(p.Data) + 2*len(p.Check))
	putU32(buf, p.NumStates)
	putU32(buf, p.NumCols)
	putU32(buf, len(p.ColOf))
	for _, v := range p.ColOf {
		putU16(buf, uint16(v)) // -1 wraps to 0xFFFF
	}
	putU32(buf, len(p.Base))
	for _, v := range p.Base {
		putU32(buf, int(v))
	}
	putU32(buf, len(p.Data))
	for _, v := range p.Data {
		a16, ok := v.Pack16()
		if !ok {
			return fmt.Errorf("tables: action target %d exceeds the 14-bit packed form", v.Target())
		}
		putU16(buf, a16)
	}
	putU32(buf, len(p.Check))
	for _, v := range p.Check {
		if v < 0 || v > 0xFFFF {
			return fmt.Errorf("tables: check entry %d exceeds sixteen bits", v)
		}
		putU16(buf, uint16(v))
	}
	return nil
}

// --- decoding helpers -------------------------------------------------

type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, b)
}

func (d *decoder) u16() uint16 {
	var b [2]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (d *decoder) u32() int {
	var b [4]byte
	d.bytes(b[:])
	return int(int32(binary.LittleEndian.Uint32(b[:])))
}

func (d *decoder) i64() int64 {
	var b [8]byte
	d.bytes(b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || n < 0 || n > 1<<20 {
		if d.err == nil {
			d.err = fmt.Errorf("string length %d out of range", n)
		}
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	return string(b)
}

func (d *decoder) count(limit int) int {
	n := d.u32()
	if d.err == nil && (n < 0 || n > limit) {
		d.err = fmt.Errorf("count %d out of range (limit %d)", n, limit)
		return 0
	}
	return n
}

func decodeSymbols(d *decoder) *grammar.Grammar {
	g := &grammar.Grammar{}
	g.Name = d.str()
	g.Lambda = d.u32()
	n := d.count(1 << 20)
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

func decodeProds(d *decoder, g *grammar.Grammar) {
	n := d.count(1 << 20)
	for i := 0; i < n && d.err == nil; i++ {
		p := &grammar.Prod{}
		p.Num = d.u32()
		p.LHS = d.u32()
		p.LHSTag = d.u32() - 1
		rhsLen := d.count(1 << 10)
		for j := 0; j < rhsLen; j++ {
			p.RHS = append(p.RHS, d.u32())
			p.RHSTags = append(p.RHSTags, d.u32()-1)
		}
		uses := d.count(1 << 10)
		for j := 0; j < uses; j++ {
			p.Uses = append(p.Uses, grammar.Ref{Sym: d.u32(), Tag: d.u32()})
		}
		needs := d.count(1 << 10)
		for j := 0; j < needs; j++ {
			p.Needs = append(p.Needs, grammar.Ref{Sym: d.u32(), Tag: d.u32()})
		}
		tmpls := d.count(1 << 10)
		for j := 0; j < tmpls; j++ {
			var t grammar.Template
			t.Op = d.u32()
			t.Semantic = d.u32() == 1
			operands := d.count(1 << 10)
			for k := 0; k < operands; k++ {
				var o grammar.Operand
				o.Base = decodeArg(d)
				subs := d.count(2)
				for m := 0; m < subs; m++ {
					o.Sub = append(o.Sub, decodeArg(d))
				}
				t.Operands = append(t.Operands, o)
			}
			p.Templates = append(p.Templates, t)
		}
		g.Prods = append(g.Prods, p)
	}
}

func decodePacked(d *decoder) *Packed {
	// Every loop bails on the first read error: a truncated stream
	// claiming 2^24 entries must not spin through millions of zero
	// reads before the error surfaces.
	p := &Packed{}
	p.NumStates = d.u32()
	p.NumCols = d.u32()
	n := d.count(1 << 24)
	for i := 0; i < n && d.err == nil; i++ {
		p.ColOf = append(p.ColOf, int32(int16(d.u16())))
	}
	n = d.count(1 << 24)
	for i := 0; i < n && d.err == nil; i++ {
		p.Base = append(p.Base, int32(d.u32()))
	}
	n = d.count(1 << 24)
	for i := 0; i < n && d.err == nil; i++ {
		p.Data = append(p.Data, lr.Unpack16(d.u16()))
	}
	n = d.count(1 << 24)
	for i := 0; i < n && d.err == nil; i++ {
		p.Check = append(p.Check, int32(d.u16()))
	}
	return p
}
