package shard

import (
	"strconv"
	"unicode/utf8"

	"stochsynth/internal/mc"
)

// decodeCanonical is DecodeResult's fast path: a reflection-free parser
// for exactly the bytes ShardResult.Encode emits — json.Marshal's field
// order and omitempty rules, no whitespace except after the document, no
// string escapes. It reports ok=false on any byte it does not expect and
// on any number strconv rejects; DecodeResult then runs decodeStrict, so
// every other input (older peers, reordered or case-variant keys,
// escapes, null in odd places) and every error text stays the standard
// library's.
//
// Whatever it accepts decodes to the value decodeStrict produces from the
// same bytes: keys must appear in canonical order (any may be missing, as
// the standard library leaves absent fields zero), numbers follow the
// JSON grammar and go through the same strconv calls, "[]" gives an empty
// slice and "null" a nil one. FuzzDecodeShardResultCanonical holds the
// two decoders to that.
func decodeCanonical(data []byte) (ShardResult, bool) {
	d := canonReader{b: data}
	r := d.result()
	for d.i < len(d.b) && !d.bad {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			d.bad = true
		}
	}
	if d.bad {
		return ShardResult{}, false
	}
	return r, true
}

// canonReader is a cursor over one canonical message. The first
// unexpected byte sets bad; every method is a no-op returning a zero
// value from then on, so parsers run straight-line and check bad once.
type canonReader struct {
	b   []byte
	i   int
	bad bool
}

// next consumes c if it is the next byte.
func (d *canonReader) next(c byte) bool {
	if !d.bad && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *canonReader) expect(c byte) {
	if !d.next(c) {
		d.bad = true
	}
}

// field consumes `"name":` (preceded by a comma unless it is the
// object's first key, counted in n) if it comes next. Callers ask for
// the keys in canonical order, so a key out of place is never consumed
// and the object's closing brace check then fails.
func (d *canonReader) field(name string, n *int) bool {
	if d.bad {
		return false
	}
	b, j := d.b, d.i
	if *n > 0 {
		if j >= len(b) || b[j] != ',' {
			return false
		}
		j++
	}
	end := j + len(name) + 3
	if end > len(b) || b[j] != '"' || string(b[j+1:end-2]) != name || b[end-2] != '"' || b[end-1] != ':' {
		return false
	}
	d.i = end
	*n++
	return true
}

// null consumes the literal null if it comes next.
func (d *canonReader) null() bool {
	if !d.bad && len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

func (d *canonReader) bool() bool {
	switch {
	case d.bad:
	case len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "true":
		d.i += 4
		return true
	case len(d.b)-d.i >= 5 && string(d.b[d.i:d.i+5]) == "false":
		d.i += 5
	default:
		d.bad = true
	}
	return false
}

// string parses a string without escapes or control bytes. Valid UTF-8
// is what the standard library would return unchanged; anything else it
// would rewrite, so the fast path declines.
func (d *canonReader) string() string {
	d.expect('"')
	if d.bad {
		return ""
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			s := d.b[start:d.i]
			d.i++
			if !utf8.Valid(s) {
				break
			}
			return string(s)
		}
		if c == '\\' || c < 0x20 {
			break
		}
		d.i++
	}
	d.bad = true
	return ""
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans one JSON number — strconv accepts forms JSON does not
// ("01", "+1", ".5", "0x1p3", "Inf"), so the grammar is checked here —
// and reports whether it is a plain integer (no fraction or exponent).
func (d *canonReader) number() (lit []byte, integer bool) {
	if d.bad {
		return nil, false
	}
	b, i := d.b, d.i
	digits := func() bool {
		at := i
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i > at
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if !digits() {
			d.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.bad = true
			return nil, false
		}
	}
	lit = b[d.i:i]
	d.i = i
	return lit, integer
}

// signed parses a plain integer that fits bitSize bits.
func (d *canonReader) signed(bitSize int) int64 {
	lit, integer := d.number()
	if d.bad || !integer {
		d.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *canonReader) int64() int64 { return d.signed(64) }

// int parses an int field at the platform's int size, as the standard
// library does.
func (d *canonReader) int() int { return int(d.signed(strconv.IntSize)) }

func (d *canonReader) uint64() uint64 {
	lit, integer := d.number()
	if d.bad || !integer {
		d.bad = true
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *canonReader) float64() float64 {
	lit, _ := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return v
}

// list parses an array of elements: null gives nil and [] an empty
// non-nil slice, as the standard library decodes into a zero slice.
func list[T any](d *canonReader, elem func(*canonReader) T) []T {
	if d.null() {
		return nil
	}
	d.expect('[')
	if d.next(']') {
		return []T{}
	}
	// A flat list of numbers is sized exactly by its commas; any other
	// list grows as it goes.
	n := 1
scan:
	for _, c := range d.b[d.i:] {
		switch {
		case c == ',':
			n++
		case c == ']':
			break scan
		case !isDigit(c) && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E':
			n = 0
			break scan
		}
	}
	out := make([]T, 0, n)
	for !d.bad {
		out = append(out, elem(d))
		if !d.next(',') {
			d.expect(']')
			break
		}
	}
	return out
}

func (d *canonReader) result() (r ShardResult) {
	d.expect('{')
	n := 0
	if d.field("version", &n) {
		r.Version = d.int()
	}
	if d.field("sweep", &n) {
		r.Sweep = d.string()
	}
	if d.field("grid", &n) {
		r.Grid = list(d, (*canonReader).float64)
	}
	if d.field("trials", &n) {
		r.Trials = d.int()
	}
	if d.field("seed", &n) {
		r.Seed = d.uint64()
	}
	if d.field("outcomes", &n) {
		r.Outcomes = d.int()
	}
	if d.field("numeric", &n) {
		r.Numeric = d.bool()
	}
	if d.field("dist", &n) {
		r.Dist = d.bool()
	}
	if d.field("ranges", &n) {
		r.Ranges = list(d, (*canonReader).rangeValue)
	}
	if d.field("points", &n) {
		r.Points = list(d, (*canonReader).point)
	}
	d.expect('}')
	return r
}

func (d *canonReader) rangeValue() (rg Range) {
	d.expect('{')
	n := 0
	if d.field("lo", &n) {
		rg.Lo = d.int()
	}
	if d.field("hi", &n) {
		rg.Hi = d.int()
	}
	d.expect('}')
	return rg
}

func (d *canonReader) point() (pt PointTally) {
	d.expect('{')
	n := 0
	if d.field("param", &n) {
		pt.Param = d.float64()
	}
	if d.field("counts", &n) {
		pt.Counts = list(d, (*canonReader).int64)
	}
	if d.field("none", &n) {
		pt.None = d.int64()
	}
	if d.field("moments", &n) {
		pt.Moments = list(d, (*canonReader).momentNode)
	}
	if d.field("dist", &n) {
		// Encode omits a nil summary; "dist":null is left to the strict
		// path.
		ds := d.distSummary()
		pt.Dist = &ds
	}
	d.expect('}')
	return pt
}

func (d *canonReader) momentNode() (m mc.MomentNode) {
	d.expect('{')
	n := 0
	if d.field("start", &n) {
		m.Start = d.int()
	}
	if d.field("size", &n) {
		m.Size = d.int()
	}
	if d.field("mean", &n) {
		m.Mean = d.float64()
	}
	if d.field("m2", &n) {
		m.M2 = d.float64()
	}
	if d.field("min", &n) {
		m.Min = d.float64()
	}
	if d.field("max", &n) {
		m.Max = d.float64()
	}
	d.expect('}')
	return m
}

func (d *canonReader) distSummary() (s mc.DistSummary) {
	d.expect('{')
	n := 0
	if d.field("moments", &n) {
		s.Moments = list(d, (*canonReader).momentNode)
	}
	if d.field("sketch", &n) {
		s.Sketch = list(d, (*canonReader).sketchNode)
	}
	if d.field("hist", &n) {
		s.Hist = d.histSummary()
	}
	if d.field("fpt", &n) {
		s.FPT = d.fptSummary()
	}
	d.expect('}')
	return s
}

func (d *canonReader) sketchNode() (s mc.SketchNode) {
	d.expect('{')
	n := 0
	if d.field("start", &n) {
		s.Start = d.int()
	}
	if d.field("size", &n) {
		s.Size = d.int()
	}
	if d.field("min", &n) {
		s.Min = d.float64()
	}
	if d.field("max", &n) {
		s.Max = d.float64()
	}
	if d.field("items", &n) {
		s.Items = list(d, (*canonReader).sketchItem)
	}
	d.expect('}')
	return s
}

func (d *canonReader) sketchItem() (it mc.SketchItem) {
	d.expect('{')
	n := 0
	if d.field("v", &n) {
		it.V = d.float64()
	}
	if d.field("w", &n) {
		it.W = d.int64()
	}
	d.expect('}')
	return it
}

func (d *canonReader) histSummary() (h mc.HistSummary) {
	d.expect('{')
	n := 0
	if d.field("cfg", &n) {
		d.expect('{')
		m := 0
		if d.field("lo", &m) {
			h.Cfg.Lo = d.int64()
		}
		if d.field("width", &m) {
			h.Cfg.Width = d.int64()
		}
		if d.field("bins", &m) {
			h.Cfg.Bins = d.int()
		}
		d.expect('}')
	}
	if d.field("counts", &n) {
		h.Counts = list(d, (*canonReader).int64)
	}
	if d.field("under", &n) {
		h.Under = d.int64()
	}
	if d.field("over", &n) {
		h.Over = d.int64()
	}
	if d.field("n", &n) {
		h.N = d.int64()
	}
	if d.field("min", &n) {
		h.Min = d.int64()
	}
	if d.field("max", &n) {
		h.Max = d.int64()
	}
	d.expect('}')
	return h
}

func (d *canonReader) fptSummary() (f mc.FPTSummary) {
	d.expect('{')
	n := 0
	if d.field("classes", &n) {
		f.Classes = list(d, (*canonReader).fptClass)
	}
	if d.field("unresolved", &n) {
		f.Unresolved = d.fptClass()
	}
	d.expect('}')
	return f
}

func (d *canonReader) fptClass() (c mc.FPTClass) {
	d.expect('{')
	n := 0
	if d.field("count", &n) {
		c.Count = d.int64()
	}
	if d.field("steps", &n) {
		c.Steps = d.int64()
	}
	if d.field("min", &n) {
		c.MinSteps = d.int64()
	}
	if d.field("max", &n) {
		c.MaxSteps = d.int64()
	}
	if d.field("logbins", &n) {
		c.LogBins = list(d, (*canonReader).int64)
	}
	d.expect('}')
	return c
}
