package ivm

import (
	"fmt"

	"fivm/internal/data"
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

type planStep[P any] struct {
	node      *viewtree.Node
	siblings  []*planSibling
	accSchema data.Schema
	margVars  []margVar
	outProj   data.Projector

	// Reusable scratch for exec: two work-item slices swapped between join
	// stages, a key-encoding buffer, and the output delta relation (cleared
	// and refilled per call), so steady-state propagation does not allocate
	// per step. Plans are engine-owned and single-threaded; the output
	// relation is consumed (merged and iterated) before the next exec of the
	// same step, and nothing it made outlives that: it is delta scratch
	// (data.Relation.RecycleCleared), so views copy the keys and payloads
	// they adopt from it, and the tuples too unless the step shares its
	// input's (shareOut).
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
	// growing buffer reused across execs (work items never outlive the next
	// exec, and everything stored durably is copied by projection first).
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

	// shareOut marks the steps whose output may store prefix subslices of the
	// input delta's tuples instead of projecting into its own tuple slab
	// (data.Relation.ShareProjectedTuples). Decided by buildPlan: every
	// sibling is probed by full key, so work items keep the input's stored
	// tuples; outProj is a prefix projection; and the input is the leaf delta
	// or the output of a step that shares. Whether a run does share is up to
	// the leaf delta it is given (deltaPlan.run): a volatile one lends
	// nothing. Any other step's output is slab-backed and dies with its next
	// exec.
	shareOut bool
}

// liftCacheMax bounds the per-step lift-product cache.
const liftCacheMax = 1 << 16

type margVar struct {
	name string
	idx  int
}

type planSibling struct {
	node *viewtree.Node
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

// buildPlan compiles the leaf-to-root delta schedule for a leaf.
func (e *Engine[P]) buildPlan(leaf *viewtree.Node) (*deltaPlan[P], error) {
	plan := &deltaPlan[P]{leaf: leaf}
	cur := leaf
	// Whether the tuples of the delta a step consumes can outlive the batch:
	// the leaf delta's may (run asks it), a step output's only when the step
	// shared them.
	durable := true
	for node := cur.Parent(); node != nil; node = node.Parent() {
		st := &planStep[P]{node: node}
		acc := cur.Keys.Clone()

		// Collect the sibling views to join with. A sibling the
		// materialization policy chose not to store (cost-demoted) is
		// expanded in place: its children are probed instead, and its
		// marginalized variables join this step's lift-and-marginalize set —
		// V = ⊕_{V.Marg}(⨝ children) substituted into the step's join, which
		// is exact because lifting products commute across the join.
		var sibs []*viewtree.Node
		var inlineMarg data.Schema
		var expand func(s *viewtree.Node)
		expand = func(s *viewtree.Node) {
			if s.IsLeaf() || e.mat[s] {
				sibs = append(sibs, s)
				return
			}
			inlineMarg = append(inlineMarg, s.Marg...)
			for _, c := range s.Children {
				expand(c)
			}
		}
		for _, c := range node.Children {
			if c != cur {
				expand(c)
			}
		}
		for len(sibs) > 0 {
			best, bestOverlap := 0, -1
			for i, s := range sibs {
				if ov := len(s.Keys.Intersect(acc)); ov > bestOverlap {
					best, bestOverlap = i, ov
				}
			}
			s := sibs[best]
			sibs = append(sibs[:best], sibs[best+1:]...)

			common := s.Keys.Intersect(acc)
			ps := &planSibling{
				node:      s,
				common:    common,
				probeProj: data.MustProjector(acc, common),
				full:      common.SameSet(s.Keys),
				extra:     s.Keys.Minus(common),
			}
			ps.extraProj = data.MustProjector(s.Keys, ps.extra)
			st.siblings = append(st.siblings, ps)
			acc = acc.Union(ps.extra)
		}
		st.accSchema = acc
		allMarg := node.Marg
		if len(inlineMarg) > 0 {
			allMarg = append(node.Marg.Clone(), inlineMarg...)
		}
		for _, mv := range allMarg {
			i := acc.IndexOf(mv)
			if i < 0 {
				return nil, fmt.Errorf("ivm: marginalized variable %q missing from join schema %v at %s", mv, acc, node.Name())
			}
			st.margVars = append(st.margVars, margVar{name: mv, idx: i})
		}
		if len(st.margVars) > 0 {
			st.margProj = data.MustProjector(acc, acc.Intersect(allMarg))
			st.liftCache = make(map[string]*P)
		}
		var err error
		st.outProj, err = data.NewProjector(acc, node.Keys)
		if err != nil {
			return nil, fmt.Errorf("ivm: %s: %v", node.Name(), err)
		}
		st.shareOut = durable && st.outProj.IsPrefix()
		for _, sib := range st.siblings {
			st.shareOut = st.shareOut && sib.full
		}
		durable = st.shareOut
		plan.steps = append(plan.steps, st)
		cur = node
	}
	return plan, nil
}

// registerIndexes creates the secondary indexes the plan probes. Sibling
// views must be materialized; the µ rule guarantees this because the delta
// path's subtree contains an updatable relation.
func (p *deltaPlan[P]) registerIndexes(e *Engine[P]) {
	for _, st := range p.steps {
		for _, sib := range st.siblings {
			v := e.views[sib.node]
			if v == nil {
				panic(fmt.Sprintf("ivm: sibling view %s of delta path for %s is not materialized", sib.node.Name(), p.leaf.Name()))
			}
			if !sib.full {
				v.EnsureIndex(sib.common)
			}
		}
	}
}

// run propagates a delta along the plan, merging into every materialized
// view on the path (including the leaf itself).
func (p *deltaPlan[P]) run(e *Engine[P], delta *data.Relation[P]) error {
	if v := e.views[p.leaf]; v != nil {
		v.MergeAllIndexed(delta)
	}
	// A delta whose tuples die with its batch — a BatchArena's, handed through
	// the conversion scratch, or a scratch relation's own — lends none to the
	// step outputs: every step of this run projects into its slab, and the
	// views copy what they adopt from there (data.Relation.keepTuple).
	durable := !delta.VolatileTuples()
	cur := delta
	for _, st := range p.steps {
		next := st.exec(e, cur, st.shareOut && durable)
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

// exec computes the delta of st.node given the delta of the child it came
// from: it joins the child delta with the sibling views by index probes,
// lifts and marginalizes the node's bound variables, and projects onto the
// node's keys. Work-item slices and the probe-key buffer are reused across
// calls, and index probes yield entries directly, so the steady-state join
// allocates only for freshly extended tuples. share says whether this run's
// output stores subslices of delta's tuples (shareOut, and delta's are durable).
func (st *planStep[P]) exec(e *Engine[P], delta *data.Relation[P], share bool) *data.Relation[P] {
	items := st.items[:0]
	delta.IterateEntries(func(en *data.Entry[P]) bool {
		items = append(items, workItem[P]{t: en.Tuple, p: &en.Payload})
		return true
	})

	spare := st.spare
	if st.prods.r == nil {
		st.prods = newProdBuf[P](e.ring)
	}
	st.prods.reset()
	arena := st.tupArena[:0]
	for _, sib := range st.siblings {
		if len(items) == 0 {
			break
		}
		view := e.views[sib.node]
		next := spare[:0]
		if sib.full {
			for _, it := range items {
				if en := view.LookupProjected(sib.probeProj, it.t); en != nil {
					next = append(next, workItem[P]{t: it.t, p: st.prods.product(it.p, &en.Payload)})
				}
			}
		} else {
			ix := view.EnsureIndex(sib.common)
			for _, it := range items {
				st.keyBuf = sib.probeProj.AppendKey(st.keyBuf[:0], it.t)
				for en := range ix.ProbeBytes(st.keyBuf).All() {
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
	st.items, st.spare = items, spare
	st.tupArena = arena

	// Reserve only on first use: Clear retains the map's capacity, which a
	// subsequent Reserve would throw away by allocating a fresh table. The
	// output is recycling scratch: its entries live only until the next exec
	// of this step, and every consumer copies what it keeps.
	if st.out == nil {
		st.out = data.NewRelation(e.ring, st.node.Keys)
		st.out.RecycleCleared()
		st.out.Reserve(len(items))
	} else {
		st.out.Clear()
	}
	out := st.out
	out.ShareProjectedTuples(share)
	for _, it := range items {
		// Multiply the liftings together first: lift values are small ring
		// elements, while the accumulated payload can be large (a wide
		// cofactor triple or a relational payload), so the payload joins the
		// product once instead of once per variable — and, for rings with
		// in-place accumulation, directly inside the output's stored payload
		// via the fused multiply-merge (zero allocations on existing keys).
		if len(st.margVars) > 0 {
			lp := st.liftProduct(e, it.t)
			if e.opts.PayloadTransform != nil {
				out.MergeProjected(st.outProj, it.t, e.opts.PayloadTransform(st.node, e.ring.Mul(*it.p, *lp)))
			} else {
				out.MergeMulProjected(st.outProj, it.t, it.p, lp)
			}
			continue
		}
		p := *it.p
		if e.opts.PayloadTransform != nil {
			p = e.opts.PayloadTransform(st.node, p)
		}
		out.MergeProjected(st.outProj, it.t, p)
	}
	return out
}

// liftProduct returns the product of the step's lifting functions applied to
// the marginalized values of t, memoized in the step's lift-product cache
// (lifting functions are pure, and marginalized variables range over small
// domains). The returned pointer is read-only and valid until the cache is
// reset.
func (st *planStep[P]) liftProduct(e *Engine[P], t data.Tuple) *P {
	st.liftKey = st.margProj.AppendKey(st.liftKey[:0], t)
	lp, ok := st.liftCache[string(st.liftKey)]
	if !ok {
		v := e.lift(st.margVars[0].name, t[st.margVars[0].idx])
		for _, mv := range st.margVars[1:] {
			v = e.ring.Mul(v, e.lift(mv.name, t[mv.idx]))
		}
		lp = &v
		if len(st.liftCache) >= liftCacheMax {
			clear(st.liftCache)
		}
		st.liftCache[string(st.liftKey)] = lp
	}
	return lp
}
