package ivm

import (
	"sort"
	"strings"

	"fivm/internal/data"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// Adaptive re-optimization thresholds: the drift-check cadence in applied
// deltas, and the per-relation cardinality growth/shrink factor and the
// delta-rate share shift either of which triggers a re-plan check.
const (
	defaultReoptEvery  = 64
	defaultDriftFactor = 2.0
	defaultShareDrift  = 0.2
	// reoptImprovement is the cost ratio a candidate order must beat before
	// the engine pays for a migration: re-planning on estimation noise would
	// thrash.
	reoptImprovement = 0.9
)

// Replans reports how many times the engine has re-planned mid-stream.
func (e *Engine[P]) Replans() int { return e.replans }

// Order returns the engine's current (prepared) variable order, or nil
// before a deferred self-planning Init.
func (e *Engine[P]) Order() *vorder.Order { return e.order }

// Stats returns the engine's statistics collector (nil when the engine runs
// without the optimizer).
func (e *Engine[P]) Stats() *data.Stats { return e.stats }

// maybeReoptimize is called after every applied delta on adaptive engines:
// every defaultReoptEvery deltas it measures statistics drift against the
// snapshot taken at plan time and, when the drift is large and a freshly
// chosen order is estimated sufficiently cheaper, re-plans and migrates.
func (e *Engine[P]) maybeReoptimize() error {
	e.ticks++
	if e.stats == nil || e.root == nil {
		return nil
	}
	if e.ticks%defaultReoptEvery != 0 {
		return nil
	}
	cardFactor, shareDelta := e.stats.DriftFrom(e.planSnap)
	if cardFactor < defaultDriftFactor && shareDelta < defaultShareDrift {
		return nil
	}

	m := e.costModel()
	cand, err := vorder.Choose(e.q, vorder.ChooseOptions{Model: m})
	if err != nil {
		return nil // keep the current plan; the optimizer is advisory here
	}
	if err := cand.Prepare(e.q); err != nil {
		return nil
	}
	if m.Cost(cand).Total() >= m.Cost(e.order).Total()*reoptImprovement {
		// Drift is real but the current order still ranks fine (or the gain
		// is marginal). Re-baseline so the check does not fire every tick.
		e.planSnap = e.stats.Snapshot()
		return nil
	}
	return e.replan(cand)
}

// migrationSig identifies a view's definition independently of its tree: name
// (variable + exact key order, or relation), covered relations, and
// marginalized variables. Two views with equal signatures hold identical
// contents, so a migration may hand the old relation to the new view.
func migrationSig(n *viewtree.Node) string {
	rels := append([]string(nil), n.Rels...)
	sort.Strings(rels)
	marg := append([]string(nil), n.Marg...)
	sort.Strings(marg)
	return n.Name() + "|" + strings.Join(rels, ",") + "|" + strings.Join(marg, ",")
}

// replan switches the engine to a new variable order mid-stream: it compiles
// the new view tree and delta plans, then migrates state by reusing every
// materialized relation whose view definition is unchanged and rebuilding
// only the views whose schemas changed, bottom-up from the (always
// materialized) leaf contents.
func (e *Engine[P]) replan(o *vorder.Order) error {
	// Harvest reusable state from the old tree.
	oldViews := e.views
	bases := make(map[string]*data.Relation[P], len(e.q.Rels))
	for _, leaf := range e.root.Leaves() {
		if leaf.Indicator {
			continue
		}
		if v := oldViews[leaf]; v != nil {
			bases[leaf.Rel] = v.Relation
		}
	}
	for _, rd := range e.q.Rels {
		if bases[rd.Name] == nil {
			// A leaf is missing (not materialized): migration cannot rebuild
			// exactly; keep the current plan.
			return nil
		}
	}
	reuse := make(map[string]*data.IndexedRelation[P], len(oldViews))
	for n, v := range oldViews {
		reuse[migrationSig(n)] = v
	}

	if err := e.plan(o); err != nil {
		return err
	}

	// Rebuild bottom-up. Unchanged views transfer their relations (indexes
	// included) and skip recomputation, but their subtrees are still
	// visited: materialized descendants (leaves above all) must be
	// installed in e.views even when the ancestor's contents needed no
	// work — delta plans probe and merge into them directly.
	saved := e.bases
	e.bases = bases
	var build func(n *viewtree.Node) *data.Relation[P]
	build = func(n *viewtree.Node) *data.Relation[P] {
		if v, ok := reuse[migrationSig(n)]; ok {
			if e.mat[n] {
				e.views[n] = v
			}
			for _, c := range n.Children {
				build(c)
			}
			return v.Relation
		}
		rel := e.evalFromChildren(n, build)
		if e.mat[n] {
			e.views[n] = newView(rel)
		}
		return rel
	}
	build(e.root)
	e.bases = saved

	for _, plan := range e.plans {
		plan.bind()
	}
	e.attachLeafStats()
	e.planSnap = e.stats.Snapshot()
	e.replans++
	return nil
}
