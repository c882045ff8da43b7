// Package data implements the F-IVM data model: relations over rings.
//
// A relation over schema S and ring D is a finite-support function from
// tuples over S (the keys) to ring elements (the payloads). The package
// provides values, tuples, schemas, relations keyed by compact encodings,
// the three query operators — union, join, and marginalization with lifting
// functions — and the relational data ring F[Z] whose elements are
// themselves relations (paper Definition 6.4).
package data

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Kind enumerates the value types supported in keys.
type Kind uint8

// Supported key value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// Value is a single key attribute value: an int64, float64, or string.
// The zero Value is the integer 0. Value is comparable.
type Value struct {
	kind Kind
	num  uint64 // int64 or float64 bits
	str  string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, str: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the value as an int64; floats are truncated, strings yield 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	default:
		return 0
	}
}

// AsFloat returns the value as a float64; strings yield 0. Lifting functions
// for numeric rings use this coercion.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	default:
		return 0
	}
}

// AsString returns the string payload of a string value, or "".
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.str
	}
	return ""
}

// String renders the value for debugging and table output.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	default:
		return v.str
	}
}

// Hash returns a 64-bit FNV-1a hash of the value, stable across processes.
// The statistics sketch buckets values by it.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(v.kind)
	h *= prime64
	if v.kind == KindString {
		for i := 0; i < len(v.str); i++ {
			h ^= uint64(v.str[i])
			h *= prime64
		}
		return h
	}
	n := v.num
	for i := 0; i < 8; i++ {
		h ^= n & 0xff
		h *= prime64
		n >>= 8
	}
	return h
}

// appendKey appends a self-delimiting binary encoding of the value to b.
// The encoding is order-preserving for values of the same kind (big-endian
// with the int64 sign bit flipped), so lexicographic key order matches
// numeric order and sorted output reads naturally.
func (v Value) appendKey(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindString:
		b = binary.AppendUvarint(b, uint64(len(v.str)))
		b = append(b, v.str...)
	case KindInt:
		b = binary.BigEndian.AppendUint64(b, v.num^(1<<63))
	default:
		b = binary.BigEndian.AppendUint64(b, v.num)
	}
	return b
}

// Tuple is an ordered list of values laid out according to some Schema.
type Tuple []Value

// AppendKey appends the compact binary key encoding of the tuple to b and
// returns the extended slice. Callers on hot paths keep a scratch buffer and
// pass buf[:0], so steady-state key construction does zero allocations; the
// resulting bytes are valid as a map probe via string(b) (which the compiler
// compiles to an allocation-free lookup).
func (t Tuple) AppendKey(b []byte) []byte {
	for _, v := range t {
		b = v.appendKey(b)
	}
	return b
}

// Key returns a compact binary encoding of the tuple, usable as a map key.
// Two tuples have equal keys iff they are equal value-wise.
func (t Tuple) Key() string {
	if len(t) == 0 {
		return ""
	}
	return string(t.AppendKey(make([]byte, 0, 9*len(t))))
}

// Clone returns a copy of the tuple that shares no backing storage.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of tuples.
func Concat(ts ...Tuple) Tuple {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	out := make(Tuple, 0, n)
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	if len(t) == 0 {
		return "()"
	}
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ","
		}
		s += v.String()
	}
	return s + ")"
}

// Ints builds a tuple of integer values, a convenience for tests and
// generators.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Int(v)
	}
	return t
}

// Floats builds a tuple of floating-point values.
func Floats(vs ...float64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Float(v)
	}
	return t
}
