package ivm

import (
	"testing"

	"fivm/internal/data"
)

// checkViewTuples asserts, for every entry of every materialized view of an
// engine (of every shard, for a Parallel) and of every base-relation copy the
// other strategies keep, that the tuple still encodes to the entry's key —
// what a view that adopted a scratch relation's own tuple without copying it
// breaks first, one Clear later, and what a relation that stored another's
// key bytes breaks once their owner reuses the entry.
func checkViewTuples[P any](t testing.TB, what string, m Maintainer[P]) {
	t.Helper()
	check := func(name string, r *data.Relation[P]) {
		r.IterateEntries(func(en *data.Entry[P]) bool {
			if string(en.Tuple.AppendKey(nil)) != en.Key() {
				t.Fatalf("%s: %s holds tuple %v under key %q", what, name, en.Tuple, en.Key())
			}
			return true
		})
	}
	bases := func(bs map[string]*data.Relation[P]) {
		for rel, b := range bs {
			check("base "+rel, b)
		}
	}
	switch m := m.(type) {
	case *Parallel[P]:
		for _, s := range m.shards {
			checkViewTuples(t, what, s)
		}
	case *Engine[P]:
		for node, v := range m.views {
			check("view "+node.Name(), v.Relation)
		}
	case *Baseline[P]:
		bases(m.bases)
	case *Recursive[P]:
		bases(m.bases)
		for sig, v := range m.views {
			check("view "+sig, v.rel.Relation)
		}
	}
}

// TrackedViews reports which materialized views carry snapshot state (dirty
// tracking, payload privatisation): whether the root does, and how many of
// the views below it do.
func (e *Engine[P]) TrackedViews() (root bool, internal int) {
	for node, ir := range e.views {
		_, tracking := ir.DirtyKeys()
		switch {
		case !tracking:
		case node == e.root:
			root = true
		default:
			internal++
		}
	}
	return root, internal
}
