package ivm

import (
	"fmt"
	"testing"

	"fivm/internal/data"
	"fivm/internal/viewtree"
)

// strategy is what every maintainer of this package offers a test: the
// competitors' fixture surface, which Engine shares (the Result methods
// below are test-only).
type strategy[P any] interface {
	Load(rel string, r *data.Relation[P]) error
	Init() error
	ApplyDelta(rel string, delta *data.Relation[P]) error
	ApplyDeltas(batch []NamedDelta[P]) error
	Result() *data.Relation[P]
	ViewCount() int
	MemoryBytes() int
}

// Result returns the root view, which every batch updates in place.
func (m *Recursive[P]) Result() *data.Relation[P] { return m.root.rel.Relation }

// Result returns the first aggregate's result.
func (m *MultiRecursive) Result() *data.Relation[float64] { return m.instances[0].Result() }

// CheckConsistency verifies every materialized view against a from-scratch
// evaluation over the given base relation contents, comparing payloads with
// eq: after any sequence of updates, the incremental state must equal the
// non-incremental one (Section 4's correctness invariant).
func (e *Engine[P]) CheckConsistency(bases map[string]*data.Relation[P], eq func(a, b P) bool) error {
	var errs []error
	ev := e.evaluator(bases, nil)
	ev.done = func(n *viewtree.Node, fresh *data.Relation[P]) {
		if v := e.views[n]; !v.Relation.Equal(fresh, eq) {
			errs = append(errs, fmt.Errorf("view %s inconsistent:\n incremental %v\n fresh       %v",
				n.Name(), v.Relation, fresh))
		}
	}
	ev.eval(e.root)
	if len(errs) > 0 {
		return fmt.Errorf("ivm: %d inconsistent views; first: %w", len(errs), errs[0])
	}
	return nil
}

// checkViewTuples asserts, for every entry of every materialized view of an
// engine and of every base-relation copy the
// other strategies keep, that the tuple still encodes to the entry's key —
// what a view that adopted a scratch relation's own tuple without copying it
// breaks first, one Clear later, and what a relation that stored another's
// key bytes breaks once their owner reuses the entry.
func checkViewTuples[P any](t testing.TB, what string, m strategy[P]) {
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
