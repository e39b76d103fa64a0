// Package wire holds the byte-level JSON primitives of the jobs wire's
// hand-written codecs: a Reader for the canonical subset of JSON that the
// in-repo encoders write, appenders whose bytes are exactly encoding/json's,
// and the one pool of body buffers both daemons and the client read and
// write through.
//
// The subset rule: objects, arrays, numbers, true, false, and strings of
// printable ASCII with no escape sequence. A Reader that meets anything else
// — an escape, any other byte inside a string, null where its caller does
// not accept one, a number the target cannot hold exactly, or input
// encoding/json would reject — goes Off, every later call is a no-op, and
// the caller hands the same bytes to encoding/json, which stays the
// reference for everything outside the subset.
package wire

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// Reader is a cursor over one JSON document.
type Reader struct {
	data  []byte
	pos   int
	first bool // the next Next is the first of its object or array
	off   bool
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail takes the reader off the subset.
func (r *Reader) Fail() { r.off = true }

// Off reports whether the reader has left the subset.
func (r *Reader) Off() bool { return r.off }

// End reports whether the document was read whole inside the subset: only
// whitespace may follow the top-level value.
func (r *Reader) End() bool {
	r.ws()
	return !r.off && r.pos == len(r.data)
}

func (r *Reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte, or 0 at the end or when off.
func (r *Reader) peek() byte {
	r.ws()
	if r.off || r.pos == len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

// Open consumes the opening byte of an object ('{') or array ('[').
func (r *Reader) Open(c byte) {
	if r.peek() != c {
		r.off = true
		return
	}
	r.pos++
	r.first = true
}

// Next reports whether another member or element follows in the object or
// array Open began, consuming the separator before it, or the closing byte
// (then false).
func (r *Reader) Next(close byte) bool {
	c := r.peek()
	switch {
	case r.off:
		return false
	case c == close:
		r.pos++
		r.first = false
		return false
	case r.first:
		r.first = false
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.off = true
	return false
}

// Null consumes a null and reports whether there was one.
func (r *Reader) Null() bool {
	return r.peek() == 'n' && r.literal("null")
}

// Key reads an object member's name and the colon after it. The bytes alias
// the input.
func (r *Reader) Key() []byte {
	k := r.Str()
	if r.peek() != ':' {
		r.off = true
		return nil
	}
	r.pos++
	return k
}

// Str reads a string's contents; the bytes alias the input.
func (r *Reader) Str() []byte {
	if r.peek() != '"' {
		r.off = true
		return nil
	}
	start := r.pos + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return r.data[start:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			r.off = true
			return nil
		}
	}
	r.off = true
	return nil
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		return r.literal("true")
	case 'f':
		r.literal("false")
		return false
	}
	r.off = true
	return false
}

func (r *Reader) literal(lit string) bool {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.off = true
		return false
	}
	r.pos += len(lit)
	return true
}

// number consumes one number in JSON's grammar and returns its bytes; frac
// reports a fraction or an exponent.
func (r *Reader) number() (num []byte, frac bool) {
	r.ws()
	start, i := r.pos, r.pos
	digits := func() bool {
		j := i
		for i < len(r.data) && r.data[i] >= '0' && r.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(r.data) && r.data[i] == '-' {
		i++
	}
	switch {
	case i < len(r.data) && r.data[i] == '0':
		i++
	case !digits():
		r.off = true
		return nil, false
	}
	if i < len(r.data) && r.data[i] == '.' {
		i++
		if frac = true; !digits() {
			r.off = true
			return nil, false
		}
	}
	if i < len(r.data) && (r.data[i] == 'e' || r.data[i] == 'E') {
		i++
		if i < len(r.data) && (r.data[i] == '+' || r.data[i] == '-') {
			i++
		}
		if frac = true; !digits() {
			r.off = true
			return nil, false
		}
	}
	r.pos = i
	return r.data[start:i], frac
}

// Int64 reads an integer that fits an int64; a fraction, an exponent or an
// overflow takes the reader off, as each is an error to encoding/json.
func (r *Reader) Int64() int64 {
	num, frac := r.number()
	if r.off || frac {
		r.off = true
		return 0
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	var u uint64
	for _, c := range num {
		if u > (math.MaxUint64-9)/10 {
			r.off = true
			return 0
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u <= 1<<63:
		return -int64(u) // 1<<63 wraps to math.MinInt64, as it should
	}
	r.off = true
	return 0
}

// Int reads an integer that fits an int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.off = true
		return 0
	}
	return int(v)
}

// Uint8 reads an integer in 0..255.
func (r *Reader) Uint8() uint8 {
	if r.peek() == '-' {
		r.off = true
		return 0
	}
	v := r.Int64()
	if v > math.MaxUint8 {
		r.off = true
		return 0
	}
	return uint8(v)
}

// Float64 reads a number as strconv.ParseFloat reads it, which is how
// encoding/json does; one out of range takes the reader off.
func (r *Reader) Float64() float64 {
	num, _ := r.number()
	if r.off {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		r.off = true
		return 0
	}
	return f
}

// maxDepth bounds the nesting Raw follows; deeper values are left to
// encoding/json.
const maxDepth = 256

// Raw reads any valid JSON value, escapes and all, and returns its bytes
// exactly as they appear in the input, the span json.RawMessage receives.
// The bytes alias the input.
func (r *Reader) Raw() []byte {
	r.ws()
	start := r.pos
	r.skip(0)
	if r.off {
		return nil
	}
	return r.data[start:r.pos]
}

func (r *Reader) skip(depth int) {
	switch c := r.peek(); {
	case r.off:
	case depth == maxDepth:
		r.off = true
	case c == '{':
		r.Open('{')
		for r.Next('}') {
			r.skipString()
			if r.peek() != ':' {
				r.off = true
				return
			}
			r.pos++
			r.skip(depth + 1)
		}
	case c == '[':
		r.Open('[')
		for r.Next(']') {
			r.skip(depth + 1)
		}
	case c == '"':
		r.skipString()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// skipString consumes one string, validating its escapes the way
// encoding/json's scanner does (it does not validate UTF-8).
func (r *Reader) skipString() {
	if r.peek() != '"' {
		r.off = true
		return
	}
	for i := r.pos + 1; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return
		case c < 0x20:
			r.off = true
			return
		case c == '\\':
			if i++; i == len(r.data) {
				r.off = true
				return
			}
			switch r.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(r.data) {
					r.off = true
					return
				}
				for _, h := range r.data[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						r.off = true
						return
					}
				}
				i += 4
			default:
				r.off = true
				return
			}
		}
	}
	r.off = true
}

// AppendString appends s as encoding/json writes a string. Printable ASCII
// other than the quote, the backslash and the HTML characters is copied;
// a string with any other byte goes through json.Marshal, so escaping
// (HTML characters, control bytes, invalid UTF-8, U+2028/U+2029) cannot
// drift from encoding/json.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21, with a
// one-digit negative exponent unpadded. f must be finite; encoding/json
// refuses NaN and ±Inf, and so do the configurations that reach here.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// maxPooled caps the buffers kept for reuse, so one huge body does not pin
// its buffer for the life of the process.
const maxPooled = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty buffer from the pool.
func GetBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuf returns a buffer to the pool. Nothing may alias its bytes after.
func PutBuf(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		bufPool.Put(bp)
	}
}

// ReadAll appends everything rd yields to b.
func ReadAll(b []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, make([]byte, max(512, len(b)))...)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
