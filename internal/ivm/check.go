package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/viewtree"
)

// CheckConsistency verifies every materialized view against a from-scratch
// evaluation over the given base relation contents, comparing payloads with
// eq. It is a debugging and testing aid: after any sequence of updates, the
// incremental state must equal the non-incremental one (Section 4's
// correctness invariant).
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
