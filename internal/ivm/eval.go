package ivm

import (
	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// evaluator is the one bottom-up evaluation of a view tree (Section 3), for
// Engine.Init, CheckConsistency and the re-evaluation and first-order
// baselines. A node takes one pass over its inputs — its nearest leaves,
// stored views and joins of their own, as an unstored view folds into its
// parent (⊕_X ⊕_Y R = ⊕_{X,Y} R, buildPlan's expand) — scanning the largest,
// probing the others (joinStep.join) and merging each lifted row straight
// under the node's keys. Multiplicities (Engine.LoadCounts) are lifted as they
// are read; only a leaf the tree stores or joins is copied.
type evaluator[P any] struct {
	ring   ring.Ring[P]
	lift   data.LiftFunc[P]
	xform  func(*viewtree.Node, P) P
	stored func(*viewtree.Node) bool               // the views the tree keeps
	done   func(*viewtree.Node, *data.Relation[P]) // gets each, owning its rows
	base   func(rel string) *data.Relation[P]      // initial rows (nil: none)
	counts map[string]*data.Relation[int64]        // or their multiplicities
	// lean skips the multiplications by one a row's lifting costs: Init sets
	// it, which no figure counts. A baseline's evaluation is its maintenance,
	// so it multiplies every lifting, as the δ-join does.
	lean bool
	// Heap-resident scratch, so no product operand escapes per row: the
	// lifted multiplicities 1 and another, a lifting, a row's product.
	one, scaled, factor, lp P
}

func newEvaluator[P any](r ring.Ring[P], lift data.LiftFunc[P], base func(string) *data.Relation[P]) *evaluator[P] {
	return &evaluator[P]{ring: r, lift: lift, base: base, one: r.One(),
		stored: func(*viewtree.Node) bool { return false }}
}

// eval returns n's contents: a leaf's rows, or one pass over an inner node's
// inputs. A stored node's contents own their rows from the first insert.
func (ev *evaluator[P]) eval(n *viewtree.Node) *data.Relation[P] {
	keep := ev.stored(n)
	var out *data.Relation[P]
	if n.IsLeaf() {
		out = ev.leaf(n, keep)
	} else {
		out = data.NewRelation(ev.ring, n.Keys)
		if keep {
			out.Reclaim()
		}
		ev.into(out, n)
	}
	if keep && ev.done != nil {
		ev.done(n, out)
	}
	return out
}

// into computes inner node n into out: a single input leaf the tree does not
// store is read in place; otherwise the largest input is scanned.
func (ev *evaluator[P]) into(out *data.Relation[P], n *viewtree.Node) {
	ins, marg := ev.inputs(n)
	if in := ins[0]; len(ins) == 1 && in.IsLeaf() && !in.Indicator && !ev.stored(in) {
		if sch, each := ev.source(in.Rel); sch != nil {
			st := ev.step(n, sch, marg, nil)
			each(func(t data.Tuple, p *P) { ev.merge(out, st, t, p) })
		}
		return
	}
	rels := make([]*data.Relation[P], len(ins))
	scan := 0
	for i, c := range ins {
		if rels[i] = ev.eval(c); rels[i].Len() > rels[scan].Len() {
			scan = i
		}
	}
	st := ev.step(n, rels[scan].Schema(), marg, append(rels[:scan:scan], rels[scan+1:]...))
	for _, it := range st.join(rels[scan]) {
		ev.merge(out, st, it.t, it.p)
	}
}

// inputs returns what n is computed from and the variables it marginalizes:
// a view the tree does not store folds into its parent, variables and all,
// when it is a chain link (one child) or the only input of n's pass.
func (ev *evaluator[P]) inputs(n *viewtree.Node) (ins []*viewtree.Node, marg data.Schema) {
	marg = n.Marg.Clone()
	var add func(c *viewtree.Node, only bool)
	add = func(c *viewtree.Node, only bool) {
		if c.IsLeaf() || ev.xform != nil || ev.stored(c) || !only && len(c.Children) > 1 {
			ins = append(ins, c)
			return
		}
		marg = append(marg, c.Marg...)
		for _, g := range c.Children {
			add(g, only && len(c.Children) == 1)
		}
	}
	for _, c := range n.Children {
		add(c, len(n.Children) == 1)
	}
	return ins, marg
}

// step compiles the join of n's scanned input (schema in) with the probed
// ones, over indexes of its own: a stored view keeps only those its delta
// plans probe.
func (ev *evaluator[P]) step(n *viewtree.Node, in, marg data.Schema, probed []*data.Relation[P]) *joinStep[P] {
	st := &joinStep[P]{ring: ev.ring, lift: ev.lift, keys: n.Keys}
	if ev.xform != nil {
		st.xform = func(p P) P { return ev.xform(n, p) }
	}
	for _, r := range probed {
		st.siblings = append(st.siblings, &joinSibling[P]{name: n.Name(), keys: r.Schema(),
			stored: func() *data.IndexedRelation[P] { return data.NewIndexedRelation(r) }})
	}
	if err := st.compile(in, marg); err != nil {
		panic("ivm: " + n.Name() + ": " + err.Error())
	}
	st.bind()
	return st
}

// merge adds one joined row t, payload *p, to out (joinStep.merge), lifted
// over the step's marginalized variables.
func (ev *evaluator[P]) merge(out *data.Relation[P], st *joinStep[P], t data.Tuple, p *P) {
	st.merge(out, t, p, ev.liftOf(st.margVars, t))
}

// liftOf returns the product of the liftings of t's values at vars, in the
// evaluator's scratch, or nil when there are none — or, lean, when each is
// the identity: a lean lifting of one costs no Mul. It computes per row, not
// through the δ-join's cache (joinStep.liftProduct): over a base relation,
// that cache would buy an entry for nearly every row.
func (ev *evaluator[P]) liftOf(vars []margVar, t data.Tuple) *P {
	var lp *P
	for _, v := range vars {
		ev.factor = ev.lift(v.name, t[v.idx])
		switch {
		case ev.lean && ev.ring.IsOne(&ev.factor):
		case lp == nil:
			ev.lp, lp = ev.factor, &ev.lp
		default:
			ev.lp = ev.ring.Mul(ev.lp, ev.factor)
		}
	}
	return lp
}

// source returns rel's initial rows: their column order (nil: none) and an
// iteration over each with its payload in the ring — a loaded relation's
// own, or a multiplicity lifted as it is read (n·1, in scratch).
func (ev *evaluator[P]) source(rel string) (data.Schema, func(func(data.Tuple, *P))) {
	if c := ev.counts[rel]; c != nil {
		return c.Schema(), func(f func(data.Tuple, *P)) {
			c.IterateEntries(func(en *data.Entry[int64]) bool {
				p := &ev.one
				if en.Payload != 1 {
					p, ev.scaled = &ev.scaled, data.Mult(ev.ring, en.Payload)
				}
				f(en.Tuple, p)
				return true
			})
		}
	}
	if b := ev.base(rel); b != nil {
		return b.Schema(), func(f func(data.Tuple, *P)) {
			b.IterateEntries(func(en *data.Entry[P]) bool {
				f(en.Tuple, &en.Payload)
				return true
			})
		}
	}
	return nil, nil
}

// leaf returns a leaf's rows: a loaded relation in place when the tree joins
// it as it is, else a relation of the ring over the leaf's keys, owning its
// rows — the stored leaf's, an indicator's presence, or multiplicities lifted.
func (ev *evaluator[P]) leaf(n *viewtree.Node, keep bool) *data.Relation[P] {
	if b := ev.base(n.Rel); !keep && !n.Indicator && b != nil {
		return b
	}
	out := data.NewRelation(ev.ring, n.Keys)
	out.Reclaim()
	if sch, each := ev.source(n.Rel); sch != nil {
		proj := data.MustProjector(sch, n.Keys)
		each(func(t data.Tuple, p *P) {
			if n.Indicator {
				out.Set(proj.Apply(t), ev.one)
			} else {
				out.MergeProjected(proj, t, *p)
			}
		})
	}
	return out
}

// buildTree prepares a variable order and constructs the collapsed view
// tree for a query; shared by strategy constructors.
func buildTree(q query.Query, o *vorder.Order, compose bool) (*viewtree.Node, error) {
	if o == nil {
		// Self-plan: no statistics are available at this layer, so the
		// optimizer ranks candidates structurally (see vorder.Choose).
		var err error
		if o, err = vorder.Choose(q, vorder.ChooseOptions{}); err != nil {
			return nil, err
		}
	}
	if err := o.Prepare(q); err != nil {
		return nil, err
	}
	root, err := viewtree.Build(o, q)
	if err != nil {
		return nil, err
	}
	root = viewtree.CollapseIdentical(root)
	if compose {
		root = viewtree.ComposeChains(root)
	}
	return root, nil
}
