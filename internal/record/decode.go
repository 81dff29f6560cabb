package record

import (
	"bytes"
	"fmt"
	"math"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// kindKey opens every line Encode writes: the struct field order puts Kind
// first, and Decode needs it to pick the record type before any other key.
var kindKey = []byte(`{"kind":`)

// Decode parses one JSONL line into the concrete record type.
//
// It is one hand-written pass over the line, not encoding/json: every Open,
// Compact and replica apply decodes each WAL line, and reflective decoding
// was most of their CPU (DESIGN §7). It accepts the shape Encode writes: an
// object whose first key is "kind", then that kind's keys in any order with
// string or integer values, and "wall" as an RFC 3339 string. Strings
// follow encoding/json: the standard escapes, \u surrogate pairs, and
// U+FFFD for a lone surrogate or each byte of invalid UTF-8. Unknown,
// escaped or case-folded keys, null, fractions, exponents and whitespace
// between tokens are corruption. Any line Decode accepts, encoding/json
// decodes to the same record.
func Decode(line []byte) (any, error) {
	d := lineDecoder{s: line}
	if !bytes.HasPrefix(line, kindKey) {
		d.fail(`line does not start with {"kind":`)
		return nil, d.err
	}
	d.i = len(kindKey)
	kind := d.name()
	if d.err != nil {
		return nil, d.err
	}
	var rec any
	switch string(kind) {
	case string(KindLog):
		r := &LogRecord{Kind: KindLog}
		for d.next() {
			switch string(d.key) {
			case "projid":
				r.ProjID = d.str()
			case "tstamp":
				r.Tstamp = d.int()
			case "filename":
				r.Filename = d.str()
			case "ctx_id":
				r.CtxID = d.int()
			case "value_name":
				r.ValueName = d.str()
			case "value":
				r.Value = d.str()
			case "value_type":
				r.ValueType = d.valueType()
			case "wall":
				d.wall(&r.Wall)
			default:
				d.unknownKey()
			}
		}
		rec = r
	case string(KindLoop):
		r := &LoopRecord{Kind: KindLoop}
		for d.next() {
			switch string(d.key) {
			case "projid":
				r.ProjID = d.str()
			case "tstamp":
				r.Tstamp = d.int()
			case "filename":
				r.Filename = d.str()
			case "ctx_id":
				r.CtxID = d.int()
			case "parent_ctx_id":
				r.ParentCtxID = d.int()
			case "loop_name":
				r.LoopName = d.str()
			case "loop_iteration":
				r.LoopIter = d.int()
			case "iteration_value":
				r.IterValue = d.str()
			case "wall":
				d.wall(&r.Wall)
			default:
				d.unknownKey()
			}
		}
		rec = r
	case string(KindArg):
		r := &ArgRecord{Kind: KindArg}
		for d.next() {
			switch string(d.key) {
			case "projid":
				r.ProjID = d.str()
			case "tstamp":
				r.Tstamp = d.int()
			case "filename":
				r.Filename = d.str()
			case "name":
				r.Name = d.str()
			case "value":
				r.Value = d.str()
			default:
				d.unknownKey()
			}
		}
		rec = r
	case string(KindCkpt):
		r := &CkptRecord{Kind: KindCkpt}
		for d.next() {
			switch string(d.key) {
			case "projid":
				r.ProjID = d.str()
			case "tstamp":
				r.Tstamp = d.int()
			case "filename":
				r.Filename = d.str()
			case "ctx_id":
				r.CtxID = d.int()
			case "name":
				r.Name = d.str()
			case "blob_key":
				r.BlobKey = d.str()
			default:
				d.unknownKey()
			}
		}
		rec = r
	case string(KindCommit):
		r := &CommitRecord{Kind: KindCommit}
		for d.next() {
			switch string(d.key) {
			case "projid":
				r.ProjID = d.str()
			case "tstamp":
				r.Tstamp = d.int()
			case "vid":
				r.VID = d.str()
			case "wall":
				d.wall(&r.Wall)
			default:
				d.unknownKey()
			}
		}
		rec = r
	default:
		return nil, fmt.Errorf("record: unknown kind %q", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

// lineDecoder is Decode's cursor over one line. The first error sticks:
// later reads return zero values and leave it in place.
type lineDecoder struct {
	s   []byte
	i   int    // next unread byte
	key []byte // the key next returned
	err error
}

func (d *lineDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("record: decode: %s at byte %d", msg, d.i)
	}
}

func (d *lineDecoder) unknownKey() {
	d.fail(fmt.Sprintf("unknown key %q", d.key))
}

// next consumes the separator before the object's next key and the key's
// colon, leaving the key in d.key. It reports false at the closing brace,
// which must end the line, and after any error.
func (d *lineDecoder) next() bool {
	if d.err != nil {
		return false
	}
	if d.i >= len(d.s) {
		d.fail("unterminated object")
		return false
	}
	switch d.s[d.i] {
	case '}':
		if d.i+1 != len(d.s) {
			d.fail("bytes after the closing brace")
		}
		return false
	case ',':
		d.i++
		d.key = d.name()
		if d.err != nil {
			return false
		}
		if d.i >= len(d.s) || d.s[d.i] != ':' {
			d.fail("missing colon after key")
			return false
		}
		d.i++
		return true
	}
	d.fail("expected ',' or '}'")
	return false
}

// name reads a key or the kind: a string token returned raw, without
// unescaping. A raw name holding a backslash matches no known name, so the
// caller rejects it as unknown rather than decoding it.
func (d *lineDecoder) name() []byte {
	if d.i >= len(d.s) || d.s[d.i] != '"' {
		d.fail("expected string")
		return nil
	}
	start := d.i + 1
	n := bytes.IndexByte(d.s[start:], '"')
	if n < 0 {
		d.fail("unterminated string")
		return nil
	}
	d.i = start + n + 1
	return d.s[start : start+n]
}

func (d *lineDecoder) str() string {
	return string(d.quoted())
}

// quoted decodes the JSON string at the cursor by encoding/json's rules.
// The result aliases the line when the string needs no rewriting.
func (d *lineDecoder) quoted() []byte {
	if d.err != nil {
		return nil
	}
	s := d.s
	if d.i >= len(s) || s[d.i] != '"' {
		d.fail("expected string")
		return nil
	}
	start := d.i + 1
	i := start
	for i < len(s) {
		c := s[i]
		if c == '"' {
			d.i = i + 1
			return s[start:i]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	buf := append(make([]byte, 0, i-start+utf8.UTFMax), s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			d.i = i + 1
			return buf
		case c < ' ':
			d.i = i
			d.fail("control byte in string")
			return nil
		case c == '\\':
			if i+1 >= len(s) {
				d.i = i
				d.fail("unterminated string")
				return nil
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(s[i+2:])
				if r < 0 {
					d.i = i
					d.fail(`bad \u escape`)
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Half of a pair: combine it with a following \u low
					// half. A lone half stays r, which AppendRune writes as
					// U+FFFD, as encoding/json does.
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						r = pair
						i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
				continue
			default:
				d.i = i
				d.fail("bad escape")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			// Invalid UTF-8 decodes to RuneError one byte at a time, so each
			// bad byte becomes one U+FFFD.
			r, size := utf8.DecodeRune(s[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		}
	}
	d.i = i
	d.fail("unterminated string")
	return nil
}

// hex4 parses the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// int reads a JSON integer that fits int64 exactly, as strconv.ParseInt
// would; a fraction or exponent is left unread and fails the next token.
func (d *lineDecoder) int() int64 {
	if d.err != nil {
		return 0
	}
	s, i := d.s, d.i
	neg := i < len(s) && s[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		digit := uint64(s[i] - '0')
		if u > (limit-digit)/10 {
			d.fail("integer overflows int64")
			return 0
		}
		u = u*10 + digit
	}
	if n := i - start; n == 0 || (n > 1 && s[start] == '0') {
		d.fail("expected integer")
		return 0
	}
	d.i = i
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (d *lineDecoder) valueType() ValueType {
	v := d.int()
	if int64(ValueType(v)) != v {
		d.fail("value_type overflows int")
		return 0
	}
	return ValueType(v)
}

// wall parses an RFC 3339 timestamp string through time.Time's own
// UnmarshalJSON, given the raw token exactly as encoding/json passes it.
func (d *lineDecoder) wall(t *time.Time) {
	start := d.i
	if d.quoted(); d.err != nil {
		return
	}
	if err := t.UnmarshalJSON(d.s[start:d.i]); err != nil {
		d.fail(err.Error())
	}
}
