package data

import (
	"fmt"
	"strings"
)

// Schema is an ordered list of distinct variable (attribute) names. Tuples
// over a schema lay out their values in schema order.
type Schema []string

// NewSchema builds a schema, panicking on duplicate variables; schemas are
// built from static query definitions, so duplicates are programmer errors.
func NewSchema(vars ...string) Schema {
	s := Schema(vars)
	seen := make(map[string]bool, len(vars))
	for _, v := range vars {
		if seen[v] {
			panic(fmt.Sprintf("data: duplicate variable %q in schema", v))
		}
		seen[v] = true
	}
	return s
}

// IndexOf returns the position of variable v, or -1.
func (s Schema) IndexOf(v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// Contains reports whether v occurs in the schema.
func (s Schema) Contains(v string) bool { return s.IndexOf(v) >= 0 }

// ContainsAll reports whether every variable of o occurs in s.
func (s Schema) ContainsAll(o Schema) bool {
	for _, v := range o {
		if !s.Contains(v) {
			return false
		}
	}
	return true
}

// Equal reports order-sensitive equality.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether the two schemas contain the same variables,
// regardless of order.
func (s Schema) SameSet(o Schema) bool {
	return len(s) == len(o) && s.ContainsAll(o)
}

// Union returns s followed by the variables of o not already present,
// preserving first-occurrence order.
func (s Schema) Union(o Schema) Schema {
	out := make(Schema, len(s), len(s)+len(o))
	copy(out, s)
	for _, v := range o {
		if !out.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Intersect returns the variables of s that also occur in o, in s's order.
func (s Schema) Intersect(o Schema) Schema {
	var out Schema
	for _, v := range s {
		if o.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Minus returns the variables of s that do not occur in o, in s's order.
func (s Schema) Minus(o Schema) Schema {
	var out Schema
	for _, v := range s {
		if !o.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Clone returns an independent copy.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as a bracketed variable list.
func (s Schema) String() string { return "[" + strings.Join(s, ",") + "]" }

// Projector maps tuples over a source schema to tuples over a target schema
// whose variables all occur in the source. Building a Projector once and
// applying it per tuple avoids repeated name lookups on hot paths.
type Projector struct {
	idx []int
	// prefix marks the projection that keeps the first len(idx) columns in
	// order, so its result can be a subslice of the source.
	prefix bool
}

// NewProjector builds a projector from schema from onto schema to. It
// returns an error if some target variable is missing from the source.
func NewProjector(from, to Schema) (Projector, error) {
	idx := make([]int, len(to))
	prefix := true
	for i, v := range to {
		j := from.IndexOf(v)
		if j < 0 {
			return Projector{}, fmt.Errorf("data: projection target %q not in source schema %v", v, from)
		}
		idx[i] = j
		if j != i {
			prefix = false
		}
	}
	return Projector{idx: idx, prefix: prefix}, nil
}

// IsPrefix reports whether the projection keeps the first Len columns of
// the source in order, the only kind SharedApply serves.
func (p Projector) IsPrefix() bool { return p.prefix }

// SharedApply projects the tuple without copying: the result is a
// capacity-capped subslice of t, shares its backing and is safe only while
// t's storage is immutable. Only a prefix projection can be served this way;
// any other panics — who wants to share decides so when the projector is
// built (IsPrefix), not per tuple.
func (p Projector) SharedApply(t Tuple) Tuple {
	if !p.prefix {
		panic("data: SharedApply of a non-prefix projection")
	}
	return t[:len(p.idx):len(p.idx)]
}

// MustProjector is NewProjector that panics on error, for statically known
// schemas.
func MustProjector(from, to Schema) Projector {
	p, err := NewProjector(from, to)
	if err != nil {
		panic(err)
	}
	return p
}

// Apply projects the tuple, returning a fresh tuple.
func (p Projector) Apply(t Tuple) Tuple {
	out := make(Tuple, len(p.idx))
	for i, j := range p.idx {
		out[i] = t[j]
	}
	return out
}

// AppendTo appends the projection of src to dst and returns the extended
// tuple, letting callers build a concatenated tuple in one allocation.
func (p Projector) AppendTo(dst, src Tuple) Tuple {
	for _, j := range p.idx {
		dst = append(dst, src[j])
	}
	return dst
}

// AppendKey appends the binary key encoding of the projection of t to b,
// avoiding the intermediate tuple allocation of Apply().Key().
func (p Projector) AppendKey(b []byte, t Tuple) []byte {
	for _, j := range p.idx {
		b = t[j].appendKey(b)
	}
	return b
}

// Key returns the binary key encoding of the projection of t.
func (p Projector) Key(t Tuple) string {
	if len(p.idx) == 0 {
		return ""
	}
	return string(p.AppendKey(make([]byte, 0, 9*len(p.idx)), t))
}

// Len returns the arity of the projection target.
func (p Projector) Len() int { return len(p.idx) }
