package main

import (
	"strings"

	"fivm/internal/bench"
	"fivm/internal/datasets"
	"fivm/internal/viewtree"
)

// viewTreeReport renders a dataset's view tree with the materialization
// decision per updatable set: the `fivm views` inspection tool.
func viewTreeReport(ds *datasets.Dataset, updatable []string) (*bench.Table, error) {
	if len(updatable) == 0 {
		updatable = ds.Query.RelNames()
	}
	o := ds.NewOrder()
	if err := o.Prepare(ds.Query); err != nil {
		return nil, err
	}
	root, err := viewtree.Build(o, ds.Query)
	if err != nil {
		return nil, err
	}
	root = viewtree.ComposeChains(viewtree.CollapseIdentical(root))
	mat := viewtree.Materialize(root, updatable)

	t := &bench.Table{
		Title:  "View tree for " + ds.Name + " (updatable: " + strings.Join(updatable, ",") + ")",
		Header: []string{"view", "keys", "marginalizes", "relations", "materialized"},
	}
	root.Walk(func(n *viewtree.Node) {
		marg, rels := "-", "(all)"
		if len(n.Marg) > 0 {
			marg = n.Marg.String()
		}
		if len(n.Rels) > 0 {
			rels = strings.Join(n.Rels, ",")
		}
		t.AddRow(n.Name(), n.Keys.String(), marg, rels, mat[n])
	})
	return t, nil
}
