package ivm

import (
	"fmt"

	"fivm/internal/data"
)

// FactoredDelta is an update expressed as a product of factors with pairwise
// disjoint schemas whose union is the updated relation's schema (paper
// Section 5). A rank-1 change to a matrix relation A[X,Y] is the product of
// a column factor u[X] and a row factor v[Y]; an arbitrary update decomposes
// into a union (sequence) of such products.
type FactoredDelta[P any] struct {
	Factors []*data.Relation[P]
}

// Validate checks the factors have pairwise disjoint schemas covering the
// relation schema.
func (fd FactoredDelta[P]) Validate(relSchema data.Schema) error {
	var all data.Schema
	for _, f := range fd.Factors {
		if got := all.Intersect(f.Schema()); len(got) > 0 {
			return fmt.Errorf("ivm: factored delta factors overlap on %v", got)
		}
		all = all.Union(f.Schema())
	}
	if !all.SameSet(relSchema) {
		return fmt.Errorf("ivm: factored delta covers %v, relation has %v", all, relSchema)
	}
	return nil
}

// Expand multiplies the factors out into a plain delta relation over the
// given schema order.
func (fd FactoredDelta[P]) Expand(schema data.Schema) *data.Relation[P] {
	joined := data.JoinAll(fd.Factors...)
	return data.Project(joined, schema)
}

// ApplyFactoredDelta propagates a factorized update without materializing
// its Cartesian product: the Optimize step of Figure 4. At every view on the
// leaf-to-root path, each sibling view joins only the factors it shares
// variables with, and each bound variable is marginalized inside the single
// factor that contains it. Factors are expanded only when a materialized
// view on the path must absorb the delta.
//
// For the matrix chain A1·A2·A3 under a rank-1 change to A2 this yields the
// paper's O(n²) update (versus O(n³) for first-order IVM): the deltas stay
// products of vectors until the O(n²) merge into the root. Like ApplyDelta,
// it is one batch: it ends by publishing one epoch, then reclaiming.
func (e *Engine[P]) ApplyFactoredDelta(rel string, fd FactoredDelta[P]) error {
	if !e.ready {
		return fmt.Errorf("ivm: ApplyFactoredDelta before Init")
	}
	if !e.updatable[rel] {
		return fmt.Errorf("ivm: relation %q is not updatable", rel)
	}
	leaf := e.root.LeafOf(rel)
	if leaf == nil {
		return fmt.Errorf("ivm: relation %q has no leaf in the view tree", rel)
	}
	if err := fd.Validate(leaf.Keys); err != nil {
		return err
	}
	if len(e.indLeaves[rel]) > 0 {
		// Indicator maintenance needs the expanded tuples anyway; fall back.
		return e.ApplyDelta(rel, fd.Expand(leaf.Keys))
	}
	plan := e.plans[leaf]
	if plan == nil {
		return fmt.Errorf("ivm: no delta plan for relation %q", rel)
	}

	factors := make([]*data.Relation[P], len(fd.Factors))
	copy(factors, fd.Factors)

	if v := e.views[leaf]; v != nil {
		v.MergeAllIndexed(fd.Expand(leaf.Keys))
	}

	for _, st := range plan.steps {
		// Join each sibling view with the factors it overlaps.
		for _, sib := range st.siblings {
			factors = joinSiblingFactored(e, factors, sib.view.Relation, sib.view)
		}
		// Marginalize each bound variable inside its own factor.
		for _, mv := range st.margVars {
			found := false
			for i, f := range factors {
				if f.Schema().Contains(mv.name) {
					factors[i] = data.Marginalize(f, mv.name, e.lift)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("ivm: variable %q not covered by any factor at %s", mv.name, st.node.Name())
			}
		}
		// Drop factors that became scalars of value One? They still carry
		// payload; keep them. Drop only empty factors: an empty factor
		// annihilates the rest of the delta, and the batch ends here.
		for _, f := range factors {
			if f.Len() == 0 {
				return e.publishThenReclaim()
			}
		}
		factors = normalizeFactors(e, factors)

		if v := e.views[st.node]; v != nil {
			expanded := FactoredDelta[P]{Factors: factors}.Expand(st.node.Keys)
			if e.opts.PayloadTransform != nil {
				xf := data.NewRelation(e.ring, st.node.Keys)
				expanded.Iterate(func(t data.Tuple, p P) bool {
					xf.Merge(t, e.opts.PayloadTransform(st.node, p))
					return true
				})
				expanded = xf
			}
			v.MergeAllIndexed(expanded)
		}
	}
	return e.publishThenReclaim()
}

// joinSiblingFactored joins a sibling view into the factor list: the factors
// sharing variables with the sibling are first combined (they must join the
// sibling together), then joined against the sibling through an index probe
// so the cost is proportional to the factor size plus the output size, not
// the sibling size.
func joinSiblingFactored[P any](e *Engine[P], factors []*data.Relation[P], sibling *data.Relation[P], indexed *data.IndexedRelation[P]) []*data.Relation[P] {
	var sharing []*data.Relation[P]
	var rest []*data.Relation[P]
	for _, f := range factors {
		if len(f.Schema().Intersect(sibling.Schema())) > 0 {
			sharing = append(sharing, f)
		} else {
			rest = append(rest, f)
		}
	}
	var joined *data.Relation[P]
	switch len(sharing) {
	case 0:
		// Disconnected sibling: it becomes a factor of its own.
		return append(rest, sibling.Clone())
	case 1:
		joined = sharing[0]
	default:
		joined = data.JoinAll(sharing...)
	}

	common := sibling.Schema().Intersect(joined.Schema())
	extra := sibling.Schema().Minus(common)
	ix := indexed.EnsureIndex(common)
	probe := data.MustProjector(joined.Schema(), common)
	extraProj := data.MustProjector(sibling.Schema(), extra)
	out := data.NewRelation(e.ring, joined.Schema().Union(extra))
	var buf []byte
	joined.Iterate(func(t data.Tuple, p P) bool {
		buf = probe.AppendKey(buf[:0], t)
		for en := range ix.ProbeBytes(buf).All() {
			tt := make(data.Tuple, 0, len(t)+extraProj.Len())
			tt = append(tt, t...)
			tt = extraProj.AppendTo(tt, en.Tuple)
			out.Merge(tt, e.ring.Mul(p, en.Payload))
		}
		return true
	})
	return append(rest, out)
}

// normalizeFactors merges empty-schema (scalar) factors into one and keeps
// the factor list's schemas disjoint.
func normalizeFactors[P any](e *Engine[P], factors []*data.Relation[P]) []*data.Relation[P] {
	var scalars []*data.Relation[P]
	var rest []*data.Relation[P]
	for _, f := range factors {
		if len(f.Schema()) == 0 {
			scalars = append(scalars, f)
		} else {
			rest = append(rest, f)
		}
	}
	if len(scalars) == 0 {
		return rest
	}
	s := scalars[0]
	for _, x := range scalars[1:] {
		s = data.Join(s, x)
	}
	if len(rest) == 0 {
		return []*data.Relation[P]{s}
	}
	// Fold the scalar into the smallest non-scalar factor.
	minI := 0
	for i, f := range rest {
		if f.Len() < rest[minI].Len() {
			minI = i
		}
	}
	rest[minI] = data.Join(s, rest[minI])
	return rest
}
