package data

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Multiset is a relation over the Z ring: a finite map from tuples to
// integer multiplicities. It is the element type of the relational data ring
// F[Z] (paper Definition 6.4), which lets view payloads carry entire
// relations — the listing or factorized representation of conjunctive query
// results. A relation owns the multisets it stores and accumulates into them
// in place (RelRing's AddInto and MulAddInto); the immutable operations never
// write one, and a published one is never written again.
type Multiset struct {
	schema Schema
	rows   map[string]msRow
}

type msRow struct {
	tuple Tuple
	mult  int64
}

// NewMultiset creates an empty multiset over the given schema.
func NewMultiset(schema Schema) *Multiset {
	return &Multiset{schema: schema, rows: make(map[string]msRow)}
}

// MultisetOf builds a multiset from tuples all with multiplicity 1.
func MultisetOf(schema Schema, tuples ...Tuple) *Multiset {
	m := NewMultiset(schema)
	for _, t := range tuples {
		m.add(t, 1)
	}
	return m
}

// UnitMultiset returns {() -> 1}, the identity of the relational ring.
func UnitMultiset() *Multiset {
	m := NewMultiset(nil)
	m.add(Tuple{}, 1)
	return m
}

// UnitMultisetTimes returns {() -> n}: a multiplicity-n payload, the sum of
// n units (or its negation for n < 0). Returns nil (zero) for n == 0.
func UnitMultisetTimes(n int64) *Multiset {
	if n == 0 {
		return nil
	}
	m := NewMultiset(nil)
	m.add(Tuple{}, n)
	return m
}

// SingletonMultiset returns {(x) -> 1} over schema {variable}: the lifting
// of a free variable's value in the relational ring.
func SingletonMultiset(variable string, v Value) *Multiset {
	m := NewMultiset(Schema{variable})
	m.add(Tuple{v}, 1)
	return m
}

func (m *Multiset) add(t Tuple, mult int64) {
	key := t.Key()
	row, ok := m.rows[key]
	if !ok {
		if mult != 0 {
			m.rows[key] = msRow{tuple: t, mult: mult}
		}
		return
	}
	row.mult += mult
	if row.mult == 0 {
		delete(m.rows, key)
		return
	}
	m.rows[key] = row
}

// Schema returns the multiset's schema; nil for the empty schema.
func (m *Multiset) Schema() Schema {
	if m == nil {
		return nil
	}
	return m.schema
}

// Len returns the number of distinct tuples with non-zero multiplicity.
func (m *Multiset) Len() int {
	if m == nil {
		return 0
	}
	return len(m.rows)
}

// TotalMult returns the sum of multiplicities.
func (m *Multiset) TotalMult() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, r := range m.rows {
		n += r.mult
	}
	return n
}

// Mult returns the multiplicity of tuple t.
func (m *Multiset) Mult(t Tuple) int64 {
	if m == nil {
		return 0
	}
	return m.rows[t.Key()].mult
}

// Iterate calls f for each tuple/multiplicity pair until f returns false.
func (m *Multiset) Iterate(f func(t Tuple, mult int64) bool) {
	if m == nil {
		return
	}
	for _, r := range m.rows {
		if !f(r.tuple, r.mult) {
			return
		}
	}
}

// SortedTuples returns the tuples ordered by encoded key.
func (m *Multiset) SortedTuples() []Tuple {
	if m == nil {
		return nil
	}
	keys := make([]string, 0, len(m.rows))
	for k := range m.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.rows[k].tuple)
	}
	return out
}

// scale returns the multiset with every multiplicity multiplied by k;
// k == 1 returns the receiver itself, as Mul may return an operand.
func (m *Multiset) scale(k int64) *Multiset {
	if k == 0 || m.Len() == 0 {
		return nil
	}
	if k == 1 {
		return m
	}
	out := NewMultiset(m.schema)
	for key, r := range m.rows {
		out.rows[key] = msRow{tuple: r.tuple, mult: r.mult * k}
	}
	return out
}

// ProjectOnto returns the multiset projected onto the target schema, with
// multiplicities of merged tuples summed. The factorized representation uses
// it to keep only the view's own marginalized variable in each payload.
func (m *Multiset) ProjectOnto(target Schema) *Multiset {
	if m == nil {
		return nil
	}
	if m.schema.Equal(target) {
		return m
	}
	out := NewMultiset(target)
	proj := MustProjector(m.schema, target)
	for _, r := range m.rows {
		out.add(proj.Apply(r.tuple), r.mult)
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// String renders the multiset deterministically for debugging.
func (m *Multiset) String() string {
	if m == nil {
		return "{}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v{", m.schema)
	for i, t := range m.SortedTuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%d", t, m.rows[t.Key()].mult)
	}
	b.WriteString("}")
	return b.String()
}

// RelRing is the relational data ring F[Z]: addition is multiset union,
// multiplication is natural join (Cartesian product concatenation when the
// operand schemas are disjoint), zero is the empty multiset, and one is
// {() -> 1}. Within a view tree the operand schemas of + always agree and
// the operand schemas of * are disjoint, which keeps this a ring for our
// purposes (paper footnote 2).
type RelRing struct{}

// Zero returns the empty multiset (represented as nil).
func (RelRing) Zero() *Multiset { return nil }

// One returns {() -> 1}.
func (RelRing) One() *Multiset { return UnitMultiset() }

// IsZero reports whether the multiset has empty support.
func (RelRing) IsZero(a *Multiset) bool { return a.Len() == 0 }

// Neg negates every multiplicity.
func (RelRing) Neg(a *Multiset) *Multiset {
	if a.Len() == 0 {
		return nil
	}
	out := NewMultiset(a.schema)
	for k, r := range a.rows {
		out.rows[k] = msRow{tuple: r.tuple, mult: -r.mult}
	}
	return out
}

// Add returns the multiset union (multiplicities summed). Operand schemas
// must contain the same variables.
func (RelRing) Add(a, b *Multiset) *Multiset {
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	if !a.schema.SameSet(b.schema) {
		panic(fmt.Sprintf("data: relational ring sum of schemas %v and %v", a.schema, b.schema))
	}
	out := NewMultiset(a.schema)
	for k, r := range a.rows {
		out.rows[k] = r
	}
	proj := MustProjector(b.schema, a.schema)
	for _, r := range b.rows {
		out.add(proj.Apply(r.tuple), r.mult)
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// Mul returns the natural join with multiplicities multiplied; for disjoint
// schemas this is the Cartesian product that concatenates payload tuples.
func (RelRing) Mul(a, b *Multiset) *Multiset {
	if a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	// Fast paths: a nullary operand {() -> m} scales the other. These
	// dominate in view trees, where bound variables lift to the unit.
	if len(a.schema) == 0 && len(a.rows) == 1 {
		return b.scale(a.rows[""].mult)
	}
	if len(b.schema) == 0 && len(b.rows) == 1 {
		return a.scale(b.rows[""].mult)
	}
	common := a.schema.Intersect(b.schema)
	outSchema := a.schema.Union(b.schema)
	out := NewMultiset(outSchema)

	if len(common) == 0 {
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				out.add(Concat(ra.tuple, rb.tuple), ra.mult*rb.mult)
			}
		}
		return out
	}

	bCommon := MustProjector(b.schema, common)
	bExtra := MustProjector(b.schema, b.schema.Minus(common))
	type bucket struct {
		extra Tuple
		mult  int64
	}
	buckets := make(map[string][]bucket, len(b.rows))
	for _, rb := range b.rows {
		k := bCommon.Key(rb.tuple)
		buckets[k] = append(buckets[k], bucket{extra: bExtra.Apply(rb.tuple), mult: rb.mult})
	}
	aCommon := MustProjector(a.schema, common)
	for _, ra := range a.rows {
		for _, m := range buckets[aCommon.Key(ra.tuple)] {
			out.add(Concat(ra.tuple, m.extra), ra.mult*m.mult)
		}
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// AddInto merges src's rows into *dst: *dst += src. *dst keeps its rows map
// (or gets one of its own) and takes src's tuples, which nobody writes.
func (RelRing) AddInto(dst **Multiset, src *Multiset) {
	if src.Len() == 0 {
		return
	}
	d := *dst
	switch {
	case d == nil:
		d = NewMultiset(src.schema)
		*dst = d
	case len(d.rows) == 0:
		d.schema = src.schema
	case !d.schema.SameSet(src.schema):
		panic(fmt.Sprintf("data: relational ring sum of schemas %v and %v", d.schema, src.schema))
	}
	proj := MustProjector(src.schema, d.schema)
	for _, r := range src.rows {
		d.add(proj.Apply(r.tuple), r.mult)
	}
}

// MulInto sets *dst = *a * *b: Mul's fresh result, or a copy of it where Mul
// returned an operand (a product by a nullary unit).
func (g RelRing) MulInto(dst, a, b **Multiset) {
	p := g.Mul(*a, *b)
	if p == *a || p == *b {
		g.CopyInto(dst, p)
		return
	}
	*dst = p
}

// MulAddInto accumulates *dst += *a * *b.
func (g RelRing) MulAddInto(dst, a, b **Multiset) { g.AddInto(dst, g.Mul(*a, *b)) }

// CopyInto sets *dst to a copy of src's rows in *dst's own map.
func (RelRing) CopyInto(dst **Multiset, src *Multiset) {
	if *dst == nil || *dst == src {
		*dst = NewMultiset(nil)
	}
	d := *dst
	clear(d.rows)
	if d.schema = src.Schema(); src != nil {
		maps.Copy(d.rows, src.rows)
	}
}

// IsOne reports whether *a is {() -> 1}.
func (RelRing) IsOne(a **Multiset) bool {
	return (*a).Len() == 1 && len((*a).schema) == 0 && (*a).rows[""].mult == 1
}

// Bytes estimates the heap footprint of a multiset payload.
func (RelRing) Bytes(a *Multiset) int {
	if a == nil {
		return 0
	}
	n := 48
	for k, r := range a.rows {
		n += len(k) + 16 + len(r.tuple)*32 + 16
	}
	return n
}
