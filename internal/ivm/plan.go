package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
)

// deltaPlan is the static schedule for propagating a delta from one leaf to
// the root (the delta tree of Figure 4, compiled ahead of time): one step
// per ancestor view, each listing the sibling views to probe, the variables
// to marginalize, and the projection onto the ancestor's keys.
type deltaPlan[P any] struct {
	leaf  *viewtree.Node
	steps []*planStep[P]
}

// planStep is one ancestor view on a delta plan's path: the engine's shell
// around the δ-join that computes the view's delta.
type planStep[P any] struct {
	node *viewtree.Node
	joinStep[P]
}

// joinStep is the δ-join, the computation over the keys that is the same for
// every strategy (they differ in which views they store): the delta of one
// view given the delta of one of its inputs, joined with the stored views of
// the other inputs, lifted and marginalized over the bound variables and
// projected onto the view's keys. The engine runs one per ancestor of an
// updatable leaf (planStep), Recursive one per view and updatable relation.
// The caller fills ring, lift, keys, the siblings' name, keys and stored, and
// optionally xform; compile derives the rest, bind resolves the storage.
type joinStep[P any] struct {
	ring ring.Ring[P]
	lift data.LiftFunc[P]
	// xform, when set, maps every output payload (Options.PayloadTransform
	// bound to the output view).
	xform    func(P) P
	keys     data.Schema // of the output view
	siblings []*joinSibling[P]
	margVars []margVar
	outProj  data.Projector

	// Reusable scratch for exec: two work-item slices swapped between join
	// stages, a key-encoding buffer, and the output delta relation (cleared
	// and refilled per call), so steady-state propagation does not allocate
	// per step. Steps are owned by one maintainer and single-threaded; the
	// output relation is consumed (merged and iterated) before the next exec
	// of the same step, and nothing it made outlives that: it is delta scratch
	// (data.Relation.RecycleCleared), so views copy the keys, tuples and
	// payloads they adopt from it. Under a prefix outProj its tuples are
	// subslices of the join tuples — the input's, or tupArena's — which live
	// as long.
	items, spare []workItem[P]
	keyBuf       []byte
	out          *data.Relation[P]

	// Product slots for the join stages: one append-only buffer per exec
	// (reset between execs, never truncated mid-exec), so a slot pointer a
	// work item carries across stages — including via the identity
	// short-circuit, which hands a stage-k slot pointer to stage k+1 —
	// stays valid for the whole call; see prodBuf.
	prods prodBuf[P]
	// tupArena backs the tuples of join-extended work items: slices into one
	// growing buffer reused across execs (work items and the output never
	// outlive the next exec, and the views copy what they store).
	tupArena data.Tuple

	// Lift-product cache: lifting functions are pure (a paper invariant),
	// and marginalized variables range over small domains, so the product of
	// the step's liftings is memoized per marginalized-value combination.
	// margProj encodes just those values as the cache key; values are stored
	// by pointer so hits hand out a read-only operand without copying. The
	// cache is reset if it ever exceeds liftCacheMax (unbounded domains).
	margProj  data.Projector
	liftCache map[string]*P
	liftKey   []byte
}

// liftCacheMax bounds the per-step lift-product cache.
const liftCacheMax = 1 << 16

type margVar struct {
	name string
	idx  int
}

// joinSibling is one stored view a joinStep joins its input delta with.
type joinSibling[P any] struct {
	name string // for Describe and bind's panic
	keys data.Schema
	// stored resolves the sibling's storage; bind calls it, so a view that
	// Init builds after compile is picked up there.
	stored func() *data.IndexedRelation[P]
	view   *data.IndexedRelation[P]
	index  *data.Index[P] // on common; nil when full

	// common is the probe key: the sibling variables bound by the
	// accumulated tuple at this point of the join.
	common    data.Schema
	probeProj data.Projector
	// full marks that common covers the sibling's entire key, so a direct
	// map lookup replaces an index probe.
	full bool
	// extra is the sibling variables appended to the accumulated tuple.
	extra     data.Schema
	extraProj data.Projector
}

// compile orders the siblings greedily by overlap with the accumulated join
// schema, starting from the input delta's schema in, and derives every
// projector of the step: probe and extension per sibling, the marginalized
// variables' positions and lift-cache key, and the projection onto keys.
func (st *joinStep[P]) compile(in, marg data.Schema) error {
	acc := in.Clone()
	pending := st.siblings
	st.siblings = make([]*joinSibling[P], 0, len(pending))
	for len(pending) > 0 {
		best, bestOverlap := 0, -1
		for i, s := range pending {
			if ov := len(s.keys.Intersect(acc)); ov > bestOverlap {
				best, bestOverlap = i, ov
			}
		}
		s := pending[best]
		pending = append(pending[:best], pending[best+1:]...)

		s.common = s.keys.Intersect(acc)
		s.probeProj = data.MustProjector(acc, s.common)
		s.full = s.common.SameSet(s.keys)
		s.extra = s.keys.Minus(s.common)
		s.extraProj = data.MustProjector(s.keys, s.extra)
		st.siblings = append(st.siblings, s)
		acc = acc.Union(s.extra)
	}
	for _, mv := range marg {
		i := acc.IndexOf(mv)
		if i < 0 {
			return fmt.Errorf("marginalized variable %q missing from join schema %v", mv, acc)
		}
		st.margVars = append(st.margVars, margVar{name: mv, idx: i})
	}
	if len(st.margVars) > 0 {
		st.margProj = data.MustProjector(acc, acc.Intersect(marg))
		st.liftCache = make(map[string]*P)
	}
	st.prods = newProdBuf(st.ring)
	var err error
	st.outProj, err = data.NewProjector(acc, st.keys)
	return err
}

// bind resolves every sibling's stored relation and creates the secondary
// index the step probes it by. Siblings must be stored; for the engine the µ
// rule guarantees it, because the delta path's subtree contains an updatable
// relation.
func (st *joinStep[P]) bind() {
	for _, sib := range st.siblings {
		if sib.view = sib.stored(); sib.view == nil {
			panic(fmt.Sprintf("ivm: sibling view %s of the delta step for %v is not materialized", sib.name, st.keys))
		}
		if !sib.full {
			sib.index = sib.view.EnsureIndex(sib.common)
		}
	}
}

// buildPlan compiles the leaf-to-root delta schedule for a leaf.
func (e *Engine[P]) buildPlan(leaf *viewtree.Node) (*deltaPlan[P], error) {
	plan := &deltaPlan[P]{leaf: leaf}
	cur := leaf
	for node := cur.Parent(); node != nil; node = node.Parent() {
		st := &planStep[P]{node: node, joinStep: joinStep[P]{ring: e.ring, lift: e.lift, keys: node.Keys}}
		if xf := e.opts.PayloadTransform; xf != nil {
			st.xform = func(p P) P { return xf(node, p) }
		}

		// Collect the sibling views to join with. A sibling the
		// materialization policy chose not to store (cost-demoted) is
		// expanded in place: its children are probed instead, and its
		// marginalized variables join this step's lift-and-marginalize set —
		// V = ⊕_{V.Marg}(⨝ children) substituted into the step's join, which
		// is exact because lifting products commute across the join.
		allMarg := node.Marg.Clone()
		var expand func(s *viewtree.Node)
		expand = func(s *viewtree.Node) {
			if s.IsLeaf() || e.mat[s] {
				st.siblings = append(st.siblings, &joinSibling[P]{
					name: s.Name(), keys: s.Keys,
					stored: func() *data.IndexedRelation[P] { return e.views[s] },
				})
				return
			}
			allMarg = append(allMarg, s.Marg...)
			for _, c := range s.Children {
				expand(c)
			}
		}
		for _, c := range node.Children {
			if c != cur {
				expand(c)
			}
		}
		if err := st.compile(cur.Keys, allMarg); err != nil {
			return nil, fmt.Errorf("ivm: %s: %v", node.Name(), err)
		}
		plan.steps = append(plan.steps, st)
		cur = node
	}
	return plan, nil
}

// bind binds every step of the plan to the engine's stored views.
func (p *deltaPlan[P]) bind() {
	for _, st := range p.steps {
		st.bind()
	}
}

// run propagates a delta along the plan, merging into every materialized
// view on the path (including the leaf itself).
func (p *deltaPlan[P]) run(e *Engine[P], delta *data.Relation[P]) error {
	if v := e.views[p.leaf]; v != nil {
		v.MergeAllIndexed(delta)
	}
	// Each step output is consumed here before its step runs again; the views
	// copy every row they adopt into cells of their own.
	cur := delta
	for _, st := range p.steps {
		next := st.exec(cur)
		if v := e.views[st.node]; v != nil {
			v.MergeAllIndexed(next)
		}
		if next.Len() == 0 {
			return nil
		}
		cur = next
	}
	return nil
}

// workItem carries a join tuple and a pointer to its payload. Payloads stay
// where they already live — delta entries, view entries, or a product slot
// of the step's scratch buffers — so extending the join never copies them.
type workItem[P any] struct {
	t data.Tuple
	p *P
}

// exec computes the delta of the step's view given the delta of the input it
// was compiled for: it joins that delta with the sibling views by lookups and
// index probes, lifts and marginalizes the bound variables, and projects onto
// the view's keys. Work-item slices and the probe-key buffer are reused across
// calls, and index probes yield entries directly, so the steady-state join
// allocates nothing per tuple.
func (st *joinStep[P]) exec(delta *data.Relation[P]) *data.Relation[P] {
	items := st.join(delta)

	// Reserve only on first use: Clear retains the map's capacity, which a
	// subsequent Reserve would throw away by allocating a fresh table. The
	// output is recycling scratch: its entries live only until the next exec
	// of this step, and every consumer copies what it keeps.
	if st.out == nil {
		st.out = data.NewRelation(st.ring, st.keys)
		st.out.RecycleCleared()
		st.out.Reserve(len(items))
	} else {
		st.out.Clear()
	}
	out := st.out
	for _, it := range items {
		st.merge(out, it.t, it.p, st.liftProduct(it.t))
	}
	return out
}

// merge adds one joined row to out: t's payload *p times the product of its
// liftings *lp (nil: none), transformed, under out's keys — the payload joins
// that product once, inside out's stored payload.
func (st *joinStep[P]) merge(out *data.Relation[P], t data.Tuple, p, lp *P) {
	switch {
	case st.xform != nil:
		v := *p
		if lp != nil {
			v = st.ring.Mul(v, *lp)
		}
		out.MergeProjected(st.outProj, t, st.xform(v))
	case lp == nil:
		out.MergeProjected(st.outProj, t, *p)
	default:
		out.MergeMulProjected(st.outProj, t, p, lp)
	}
}

// join joins delta's entries with the sibling views by lookups and index
// probes: the step's work items, valid until its next join.
func (st *joinStep[P]) join(delta *data.Relation[P]) []workItem[P] {
	items := st.items[:0]
	delta.IterateEntries(func(en *data.Entry[P]) bool {
		items = append(items, workItem[P]{t: en.Tuple, p: &en.Payload})
		return true
	})

	spare, swaps := st.spare, 0
	st.prods.reset()
	arena := st.tupArena[:0]
	for _, sib := range st.siblings {
		if len(items) == 0 {
			break
		}
		swaps++
		next := spare[:0]
		if sib.full {
			for _, it := range items {
				if en := sib.view.LookupProjected(sib.probeProj, it.t); en != nil {
					next = append(next, workItem[P]{t: it.t, p: st.prods.product(it.p, &en.Payload)})
				}
			}
		} else {
			for _, it := range items {
				st.keyBuf = sib.probeProj.AppendKey(st.keyBuf[:0], it.t)
				for en := range sib.index.ProbeBytes(st.keyBuf).All() {
					start := len(arena)
					arena = append(arena, it.t...)
					arena = sib.extraProj.AppendTo(arena, en.Tuple)
					tt := arena[start:len(arena):len(arena)]
					next = append(next, workItem[P]{t: tt, p: st.prods.product(it.p, &en.Payload)})
				}
			}
		}
		items, spare = next, items
	}
	// Each buffer keeps its join levels from run to run (the delta and every
	// second level, the levels between), so each is bought once, for its
	// largest level, not again whenever the two have traded places.
	if st.items, st.spare = items, spare; swaps%2 == 1 {
		st.items, st.spare = spare, items
	}
	st.tupArena = arena
	return items
}

// liftProduct returns the product of the step's lifting functions applied to
// the marginalized values of t (nil: none), memoized in the step's
// lift-product cache (lifting functions are pure, and marginalized variables
// range over small domains). The returned pointer is read-only and valid
// until the cache is reset.
func (st *joinStep[P]) liftProduct(t data.Tuple) *P {
	if len(st.margVars) == 0 {
		return nil
	}
	st.liftKey = st.margProj.AppendKey(st.liftKey[:0], t)
	lp, ok := st.liftCache[string(st.liftKey)]
	if !ok {
		v := st.lift(st.margVars[0].name, t[st.margVars[0].idx])
		for _, mv := range st.margVars[1:] {
			v = st.ring.Mul(v, st.lift(mv.name, t[mv.idx]))
		}
		lp = &v
		if len(st.liftCache) >= liftCacheMax {
			clear(st.liftCache)
		}
		st.liftCache[string(st.liftKey)] = lp
	}
	return lp
}
