package ivm

import (
	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// evalTree evaluates a view tree bottom-up over the given base relations
// (missing relations are empty), applying the lifting at every bound
// marginalization. It is the non-incremental evaluation of Section 3, used
// for initialization, for the re-evaluation baseline, and as the ground
// truth in differential tests.
func evalTree[P any](root *viewtree.Node, q query.Query, r ring.Ring[P], lift data.LiftFunc[P], bases map[string]*data.Relation[P]) *data.Relation[P] {
	return evalTreeSubst(root, q, r, lift, bases, "", nil)
}

// evalTreeSubst evaluates the tree with the leaf of relation subst replaced
// by the given relation — the on-the-fly delta query evaluation that
// first-order IVM performs per update.
func evalTreeSubst[P any](root *viewtree.Node, q query.Query, r ring.Ring[P], lift data.LiftFunc[P], bases map[string]*data.Relation[P], subst string, substRel *data.Relation[P]) *data.Relation[P] {
	var eval func(n *viewtree.Node) *data.Relation[P]
	eval = func(n *viewtree.Node) *data.Relation[P] {
		if n.IsLeaf() {
			if n.Indicator {
				return indicatorContents(r, n.Keys, bases[n.Rel])
			}
			src := bases[n.Rel]
			if n.Rel == subst {
				src = substRel
			}
			rd, _ := q.Rel(n.Rel)
			if src == nil {
				return data.NewRelation(r, rd.Schema)
			}
			if src.Schema().Equal(rd.Schema) {
				return src
			}
			return data.Project(src, rd.Schema)
		}
		rels := make([]*data.Relation[P], 0, len(n.Children))
		for _, c := range n.Children {
			rels = append(rels, eval(c))
		}
		joined := data.JoinAll(rels...)
		agg := data.MarginalizeVars(joined, joined.Schema().Intersect(n.Marg), lift)
		return data.Project(agg, n.Keys)
	}
	return eval(root)
}

// indicatorContents builds the relation of an indicator leaf over keys from
// the contents of its base relation (nil: empty): every distinct projection
// maps to the multiplicative identity.
func indicatorContents[P any](r ring.Ring[P], keys data.Schema, base *data.Relation[P]) *data.Relation[P] {
	out := data.NewRelation(r, keys)
	if base == nil {
		return out
	}
	one := r.One()
	proj := data.MustProjector(base.Schema(), keys)
	base.Iterate(func(t data.Tuple, _ P) bool {
		out.Set(proj.Apply(t), one)
		return true
	})
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
