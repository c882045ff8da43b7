package ivm

import (
	"testing"

	"fivm/internal/data"
)

// checkViewTuples asserts, for every entry of every materialized view of an
// engine (of every shard, for a Parallel), that the tuple still encodes to
// the entry's key — what a view that adopted a scratch relation's own tuple
// without copying it breaks first, one Clear later.
func checkViewTuples[P any](t testing.TB, what string, m Maintainer[P]) {
	t.Helper()
	switch m := m.(type) {
	case *Parallel[P]:
		for _, s := range m.shards {
			checkViewTuples(t, what, s)
		}
	case *Engine[P]:
		for node, v := range m.views {
			v.IterateEntries(func(en *data.Entry[P]) bool {
				if string(en.Tuple.AppendKey(nil)) != en.Key() {
					t.Fatalf("%s: view %s holds tuple %v under key %q", what, node.Name(), en.Tuple, en.Key())
				}
				return true
			})
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
