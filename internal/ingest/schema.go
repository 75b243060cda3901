package ingest

import (
	"unicode/utf8"

	"flexmeasures/internal/flexoffer"
)

// parseRecord is the schema decoder: one pass over one line for the
// FlexOffer and Slice schema, with no reflection and no decoder state.
// It reports ok only for a line encoding/json would decode to the
// identical offer (decodeJSON is the oracle and the fallback), so it
// declines, and leaves every error to encoding/json, on anything
// outside the plain form flexoffer.EncodeNDJSON writes:
//
//   - a string containing a backslash or a control byte, or that is
//     not valid UTF-8 (encoding/json unescapes the first, rejects the
//     second and replaces the third);
//   - null, anywhere;
//   - a duplicate key (encoding/json keeps the last value, and reuses
//     the first slice's storage for a second "slices");
//   - a key other than the exact field names (encoding/json matches
//     keys case-insensitively and rejects unknown ones);
//   - a number with '.', 'e' or 'E', a leading zero, a minus zero, or
//     more than 18 digits, so it is an integer encoding/json parses and
//     no field can overflow;
//   - anything but JSON whitespace after the object.
//
// Validation is the caller's. Slices is allocated at exactly its
// length, so a stored offer carries no spare capacity.
func parseRecord(line []byte) (*flexoffer.FlexOffer, bool) {
	p := recordParser{b: line}
	var f flexoffer.FlexOffer
	if !p.ws('{') {
		return nil, false
	}
	if !p.ws('}') {
		var seen uint8
		for {
			key, ok := p.key()
			if !ok {
				return nil, false
			}
			var bit uint8
			switch string(key) {
			case "id":
				bit = 1 << 0
				f.ID, ok = p.str()
			case "zone":
				bit = 1 << 1
				f.Zone, ok = p.str()
			case "earliestStart":
				bit = 1 << 2
				f.EarliestStart, ok = p.int()
			case "latestStart":
				bit = 1 << 3
				f.LatestStart, ok = p.int()
			case "slices":
				bit = 1 << 4
				f.Slices, ok = p.slices()
			case "totalMin":
				bit = 1 << 5
				f.TotalMin, ok = p.int64()
			case "totalMax":
				bit = 1 << 6
				f.TotalMax, ok = p.int64()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
			if p.ws('}') {
				break
			}
			if !p.ws(',') {
				return nil, false
			}
		}
	}
	p.skip()
	if p.i != len(p.b) {
		return nil, false
	}
	out := new(flexoffer.FlexOffer)
	*out = f
	return out, true
}

// recordParser is parseRecord's cursor over one line.
type recordParser struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (p *recordParser) skip() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// ws skips whitespace and consumes c if it comes next.
func (p *recordParser) ws(c byte) bool {
	p.skip()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key reads an object key and its colon, and skips to the value. The
// caller compares the raw bytes with the field names, so an escaped key
// never matches and is declined.
func (p *recordParser) key() ([]byte, bool) {
	p.skip()
	raw, ok := p.raw()
	if !ok || !p.ws(':') {
		return nil, false
	}
	p.skip()
	return raw, true
}

// raw reads a string the parser accepts and returns its bytes.
func (p *recordParser) raw() ([]byte, bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	ascii := true
	for i := start; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := p.b[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			p.i = i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// str reads a string value into a string of its own.
func (p *recordParser) str() (string, bool) {
	raw, ok := p.raw()
	return string(raw), ok
}

// int64 reads an integer of at most 18 digits, with no leading zero
// and no minus zero.
func (p *recordParser) int64() (int64, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if n := i - start; n == 0 || n > 18 || b[start] == '0' && (n > 1 || neg) {
		return 0, false
	}
	p.i = i
	if neg {
		v = -v
	}
	return v, true
}

// int reads an int64 that also fits an int.
func (p *recordParser) int() (int, bool) {
	v, ok := p.int64()
	return int(v), ok && int64(int(v)) == v
}

// maxStackSlices is how many slices a record collects before its
// scratch array spills to the heap.
const maxStackSlices = 64

// slices reads the slices array into an exactly sized slice; an empty
// array gives a non-nil empty slice, as encoding/json does.
func (p *recordParser) slices() ([]flexoffer.Slice, bool) {
	if !p.ws('[') {
		return nil, false
	}
	var stack [maxStackSlices]flexoffer.Slice
	buf := stack[:0]
	if !p.ws(']') {
		for {
			s, ok := p.slice()
			if !ok {
				return nil, false
			}
			buf = append(buf, s)
			if p.ws(']') {
				break
			}
			if !p.ws(',') {
				return nil, false
			}
		}
	}
	out := make([]flexoffer.Slice, len(buf))
	copy(out, buf)
	return out, true
}

// slice reads one {"min":…,"max":…} object, in either key order, with
// either key absent (zero), as encoding/json does.
func (p *recordParser) slice() (flexoffer.Slice, bool) {
	var s flexoffer.Slice
	if !p.ws('{') {
		return s, false
	}
	if p.ws('}') {
		return s, true
	}
	var seen uint8
	for {
		key, ok := p.key()
		if !ok {
			return s, false
		}
		var bit uint8
		switch string(key) {
		case "min":
			bit = 1 << 0
			s.Min, ok = p.int64()
		case "max":
			bit = 1 << 1
			s.Max, ok = p.int64()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return s, false
		}
		seen |= bit
		if p.ws('}') {
			return s, true
		}
		if !p.ws(',') {
			return s, false
		}
	}
}
