package data

import (
	"fmt"

	"fivm/internal/ring"
)

// LiftFunc maps a value of a named variable into the payload ring: the
// paper's lifting functions g_X : Dom(X) -> D. Marginalizing a variable X
// multiplies each payload by g_X applied to the key's X-value before
// aggregating X away.
type LiftFunc[P any] func(variable string, v Value) P

// Join returns the natural join a ⊗ b: for every pair of tuples agreeing on
// the shared variables, the concatenated key maps to the payload product
// (a's payload on the left). The result schema is a.schema followed by b's
// extra variables.
func Join[P any](a, b *Relation[P]) *Relation[P] {
	common := a.schema.Intersect(b.schema)
	outSchema := a.schema.Union(b.schema)
	out := NewRelation(a.ring, outSchema)

	// Build a hash index over b on the shared variables, then probe with a.
	// Payload order must stay a*b for non-commutative rings, so the build
	// side is always b.
	extra := b.schema.Minus(common)
	bCommon := MustProjector(b.schema, common)
	bExtra := MustProjector(b.schema, extra)
	type bucketEntry struct {
		extra   Tuple
		payload P
	}
	buckets := make(map[string][]bucketEntry, b.entries.len())
	b.entries.all(func(e *Entry[P]) bool {
		k := bCommon.Key(e.Tuple)
		buckets[k] = append(buckets[k], bucketEntry{extra: bExtra.Apply(e.Tuple), payload: e.Payload})
		return true
	})

	aCommon := MustProjector(a.schema, common)
	var buf []byte
	a.entries.all(func(e *Entry[P]) bool {
		buf = aCommon.AppendKey(buf[:0], e.Tuple)
		matches := buckets[string(buf)]
		for i := range matches {
			m := &matches[i]
			out.MergeMul(Concat(e.Tuple, m.extra), &e.Payload, &m.payload)
		}
		return true
	})
	return out
}

// JoinAll folds Join over the relations left to right. It panics on an
// empty argument list since the result schema would be undefined.
func JoinAll[P any](rels ...*Relation[P]) *Relation[P] {
	if len(rels) == 0 {
		panic("data: JoinAll of no relations")
	}
	out := rels[0]
	for _, r := range rels[1:] {
		out = Join(out, r)
	}
	return out
}

// Marginalize returns ⊕_X r: payloads are multiplied by the lifting of the
// X-value and summed per remaining key. The result schema is r's schema
// without X.
func Marginalize[P any](r *Relation[P], x string, lift LiftFunc[P]) *Relation[P] {
	out := NewRelation(r.ring, r.schema.Minus(Schema{x}))
	MarginalizeInto(out, r, Schema{x}, lift)
	return out
}

// MarginalizeInto merges ⊕_{X1} ... ⊕_{Xk} r into out, whose schema holds r's
// other variables in any order: one pass, applying the lifting of every
// marginalized variable and merging straight under out's key, so neither a
// chain of marginalizations nor a change of column order costs a copy.
func MarginalizeInto[P any](out, r *Relation[P], vars Schema, lift LiftFunc[P]) {
	idx := make([]int, len(vars))
	for i, x := range vars {
		if idx[i] = r.schema.IndexOf(x); idx[i] < 0 {
			panic(fmt.Sprintf("data: marginalized variable %q not in schema %v", x, r.schema))
		}
	}
	proj := MustProjector(r.schema, out.schema)
	lp := new(P) // one heap cell for every row's lifting product
	r.entries.all(func(e *Entry[P]) bool {
		// Combine the liftings first: they are small ring elements, while
		// the payload may be large, so it joins the product once — directly
		// inside the output's stored payload.
		if len(vars) == 0 {
			out.MergeProjected(proj, e.Tuple, e.Payload)
			return true
		}
		*lp = lift(vars[0], e.Tuple[idx[0]])
		for i, x := range vars[1:] {
			*lp = r.ring.Mul(*lp, lift(x, e.Tuple[idx[i+1]]))
		}
		out.MergeMulProjected(proj, e.Tuple, &e.Payload, lp)
		return true
	})
}

// Project returns the relation keyed by the target schema with payloads of
// dropped variables summed (no lifting): ⊕ with the identity lifting.
func Project[P any](r *Relation[P], target Schema) *Relation[P] {
	out := NewRelation(r.ring, target)
	proj := MustProjector(r.schema, target)
	r.entries.all(func(e *Entry[P]) bool {
		out.MergeProjected(proj, e.Tuple, e.Payload)
		return true
	})
	return out
}

// Mult returns n·1 in the ring, a base multiplicity lifted into payloads: by
// binary doubling on Add, so high multiplicities cost O(log n) ring
// operations.
func Mult[P any](r ring.Ring[P], n int64) P {
	u := uint64(n)
	if n < 0 {
		u = -u
	}
	acc, pow := r.Zero(), r.One() // pow = 2^i · 1
	for ; u > 0; u >>= 1 {
		if u&1 == 1 {
			acc = r.Add(acc, pow)
		}
		if u > 1 {
			pow = r.Add(pow, pow)
		}
	}
	if n < 0 {
		acc = r.Neg(acc)
	}
	return acc
}
