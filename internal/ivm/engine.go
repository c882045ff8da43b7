// Package ivm implements incremental view maintenance over view trees: the
// paper's F-IVM engine (factorized higher-order IVM), plus the competitors
// the engine is evaluated against — first-order IVM (1-IVM), fully recursive
// higher-order IVM (DBToaster-style), and full re-evaluation.
//
// Only Engine publishes epochs; a database view drives one. The competitors
// are figure fixtures and test oracles: they load, initialize, apply deltas
// through the same batch driver, and report their result, views and memory,
// and nothing else.
package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// Options configures an F-IVM engine.
type Options[P any] struct {
	// Updatable lists the relations that may receive deltas; it determines
	// which views are materialized (Figure 5). Empty means all relations.
	Updatable []string
	// ComposeChains collapses single-child chains of bound marginalizations
	// into multi-variable views (the paper's wide-relation optimization).
	ComposeChains bool
	// Indicators extends the view tree with indicator projections for
	// cyclic queries (Figure 10, Appendix B).
	Indicators bool
	// MaterializeAll stores every inner view regardless of µ(τ, U). The
	// factorized result representation requires it: the representation is
	// the hierarchy of view payloads, so every view must exist even if no
	// delta ever probes it.
	MaterializeAll bool
	// PayloadTransform, when set, is applied to every freshly computed view
	// payload (and every delta payload). The factorized result
	// representation uses it to project relational payloads onto each
	// view's own variable. It must be linear: f(a+b) = f(a)+f(b).
	PayloadTransform func(n *viewtree.Node, p P) P

	// Stats supplies pre-collected statistics (the ANALYZE path) for
	// self-planning and the cost policies. When nil and an optimizer feature
	// is in use, the engine ANALYZEs the loaded relations into a collector of
	// its own at Init, as every db.DB view does. Either way the engine reads
	// it only to plan and never writes to it: Explain reports the estimates
	// the order was chosen from.
	Stats *data.Stats
	// CostMaterialize replaces the structural materialization rule with the
	// cost-based policy: a probed view whose estimated footprint and merge
	// traffic exceed the cost of probing its children inline is not stored
	// (viewtree.CostMaterialize). Ignored when MaterializeAll or a payload
	// transform demands the full hierarchy.
	CostMaterialize bool
	// NoLiveStats has no effect: an engine never writes statistics. It stays
	// only because the benchmark module sets it, and ROADMAP ground rule (c)
	// pins what the benchmark calls; ROADMAP item 1 deletes it.
	NoLiveStats bool
}

// Engine is the F-IVM maintainer: one view tree for all relations, with
// views materialized according to µ(τ, U) and deltas propagated along
// leaf-to-root paths with factorized (aggregate-pushing) computation.
type Engine[P any] struct {
	driver[P] // ApplyDelta, ApplyDeltas over check, applyDelta and publishThenReclaim
	pub       publisher[P]

	q    query.Query
	ring ring.Ring[P]
	lift data.LiftFunc[P]
	opts Options[P]

	root      *viewtree.Node
	order     *vorder.Order
	updatable map[string]bool
	updList   []string
	mat       map[*viewtree.Node]bool
	views     map[*viewtree.Node]*data.IndexedRelation[P]
	plans     map[*viewtree.Node]*deltaPlan[P]
	// Stable view names. catalog is set by the first Catalog call: epochs
	// then carry every materialized view, not just the root. catNames caches
	// the sorted catalogue across epochs; a length mismatch rebuilds it.
	names    map[*viewtree.Node]string
	byName   map[string]*viewtree.Node
	catalog  bool
	catNames []string
	// indicator machinery
	indLeaves map[string][]*viewtree.Node // base relation -> indicator leaves
	trackers  map[*viewtree.Node]*viewtree.IndicatorTracker

	// Initial contents, dropped after Init: Load's, or LoadCounts'.
	bases  map[string]*data.Relation[P]
	counts map[string]*data.Relation[int64]
	ready  bool

	// optimizer state: the collector planning read, frozen from then on
	stats        *data.Stats
	pendingPlan  bool          // engine-owned stats: seeded and planned at Init, from the loaded data
	pendingOrder *vorder.Order // explicit order awaiting deferred planning (nil: choose)
}

// New builds an F-IVM engine for the query over the given variable order.
//
// The order may be nil: the engine then plans for itself with the
// cost-based optimizer (vorder.Choose). With opts.Stats set, planning
// happens immediately; otherwise it is deferred to Init, after the loaded
// relations have seeded the engine's own statistics collector (an engine
// that starts empty plans from structural defaults).
func New[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P], opts Options[P]) (*Engine[P], error) {
	e := &Engine[P]{
		q:         q,
		ring:      r,
		lift:      lift,
		opts:      opts,
		updatable: make(map[string]bool),
		bases:     make(map[string]*data.Relation[P]),
		counts:    make(map[string]*data.Relation[int64]),
	}
	e.driver = driver[P]{check: e.check, apply: e.applyDelta, end: e.publishThenReclaim}
	upd := opts.Updatable
	if len(upd) == 0 {
		upd = q.RelNames()
	}
	for _, name := range upd {
		if _, ok := q.Rel(name); !ok {
			return nil, fmt.Errorf("ivm: updatable relation %q not in query", name)
		}
		e.updatable[name] = true
	}
	e.updList = upd

	e.stats = opts.Stats
	if e.stats == nil && (o == nil || opts.CostMaterialize) {
		// The engine owns a collector, still empty: defer planning to Init
		// so order choice and the cost-based materialization decision see
		// the loaded data instead of structural defaults.
		e.stats = data.NewStats()
		e.pendingOrder = o
		e.pendingPlan = true
		return e, nil
	}
	if o == nil {
		var err error
		if o, err = e.chooseOrder(); err != nil {
			return nil, err
		}
	}
	if err := e.plan(o); err != nil {
		return nil, err
	}
	return e, nil
}

// costModel builds the cost model over the engine's current statistics.
func (e *Engine[P]) costModel() *vorder.CostModel {
	return vorder.NewCostModel(e.q, e.stats, e.updList)
}

// chooseOrder runs the optimizer over the current statistics.
func (e *Engine[P]) chooseOrder() (*vorder.Order, error) {
	return vorder.Choose(e.q, e.costModel())
}

// plan compiles the engine's static machinery for a prepared-or-fresh
// variable order: the view tree, indicator extensions, the materialization
// decision, and one delta plan per updatable leaf.
func (e *Engine[P]) plan(o *vorder.Order) error {
	if err := o.Prepare(e.q); err != nil {
		return err
	}
	root, err := viewtree.Build(o, e.q)
	if err != nil {
		return err
	}
	root = viewtree.CollapseIdentical(root)
	if e.opts.ComposeChains {
		root = viewtree.ComposeChains(root)
	}
	e.order = o
	e.root = root
	e.views = make(map[*viewtree.Node]*data.IndexedRelation[P])
	e.plans = make(map[*viewtree.Node]*deltaPlan[P])
	e.indLeaves = make(map[string][]*viewtree.Node)
	e.trackers = make(map[*viewtree.Node]*viewtree.IndicatorTracker)

	if e.opts.Indicators {
		for _, leaf := range viewtree.AddIndicators(root, e.q) {
			e.indLeaves[leaf.Rel] = append(e.indLeaves[leaf.Rel], leaf)
			rd, _ := e.q.Rel(leaf.Rel)
			e.trackers[leaf] = viewtree.NewIndicatorTracker(rd.Schema, leaf.Keys)
		}
	}

	e.mat = e.materialization()
	e.nameViews()
	// Build delta plans for every leaf that can emit deltas.
	for _, leaf := range root.Leaves() {
		if !e.updatable[leaf.Rel] {
			continue
		}
		plan, err := e.buildPlan(leaf)
		if err != nil {
			return err
		}
		e.plans[leaf] = plan
	}
	return nil
}

// materialization generalizes Figure 5 to trees with indicator leaves: a
// non-root view is materialized iff some sibling subtree contains an
// updatable relation (equivalently, a delta can arrive at the parent
// through another child, which then probes this view). Without indicators
// this is exactly (rels(parent) \ rels(V)) ∩ U ≠ ∅, since sibling subtrees
// cover disjoint relations. The leaf of any relation feeding an indicator is
// force-materialized: its contents drive the indicator's presence counts.
func (e *Engine[P]) materialization() map[*viewtree.Node]bool {
	// Relations that can cause deltas to emerge from each subtree: the
	// subtree's own updatable relations plus updatable relations feeding
	// its indicator leaves.
	emits := make(map[*viewtree.Node]bool)
	var emitsOf func(n *viewtree.Node) bool
	emitsOf = func(n *viewtree.Node) bool {
		out := false
		if n.IsLeaf() {
			out = e.updatable[n.Rel]
		}
		for _, c := range n.Children {
			if emitsOf(c) {
				out = true
			}
		}
		emits[n] = out
		return out
	}
	emitsOf(e.root)

	mat := make(map[*viewtree.Node]bool)
	e.root.Walk(func(n *viewtree.Node) {
		if n.Parent() == nil || (e.opts.MaterializeAll && !n.IsLeaf()) {
			mat[n] = true
			return
		}
		for _, sib := range n.Parent().Children {
			if sib != n && emits[sib] {
				mat[n] = true
				return
			}
		}
		mat[n] = false
	})
	// Leaves backing indicator trackers must be stored.
	for rel, leaves := range e.indLeaves {
		if len(leaves) == 0 {
			continue
		}
		if leaf := e.root.LeafOf(rel); leaf != nil {
			mat[leaf] = true
		}
	}
	// Cost-based refinement: demote probed views whose storage costs more
	// than inline computation from their children (delta plans expand such
	// siblings in place). The full-hierarchy modes must keep every view.
	if e.opts.CostMaterialize && !e.opts.MaterializeAll && e.opts.PayloadTransform == nil && e.stats != nil {
		mat = viewtree.CostMaterialize(e.root, mat, e.updatable, e.costModel())
	}
	return mat
}

// Tree returns the engine's view tree.
func (e *Engine[P]) Tree() *viewtree.Node { return e.root }

// Order returns the engine's (prepared) variable order, or nil before a
// deferred self-planning Init.
func (e *Engine[P]) Order() *vorder.Order { return e.order }

// ViewOf returns the materialized contents of a view, or nil. The returned
// relation is a live handle that delta propagation keeps mutating: it is not
// safe to read while another goroutine applies deltas. Concurrent readers
// must pin an epoch via Catalog and read ViewSnapshot.ViewOf / View.
func (e *Engine[P]) ViewOf(n *viewtree.Node) *data.Relation[P] {
	if v, ok := e.views[n]; ok {
		return v.Relation
	}
	return nil
}

// Load installs the initial contents of a relation (before Init), its schema
// the query's in any column order. It stays the caller's and must not change
// until Init returns: Init reads it in place and copies only the rows of a
// leaf the tree stores.
func (e *Engine[P]) Load(rel string, r *data.Relation[P]) error {
	if _, err := checkRel(e.q, rel, r); err != nil {
		return err
	}
	delete(e.counts, rel)
	e.bases[rel] = r
	return nil
}

// LoadCounts is Load for rows with integer multiplicities, as a
// data.BaseStore keeps them: Init lifts each n into the ring (n·1) as it
// reads it, and copies only a leaf the tree stores or joins with others.
func (e *Engine[P]) LoadCounts(rel string, r *data.Relation[int64]) error {
	if _, err := checkRel(e.q, rel, r); err != nil {
		return err
	}
	delete(e.bases, rel)
	e.counts[rel] = r
	return nil
}

// Init computes each view the tree stores, in one pass from its nearest
// stored descendants or from the loaded rows (missing relations are empty;
// evaluator), and registers the indexes delta propagation will probe. An
// engine constructed with a nil order and no pre-collected statistics plans
// here, after seeding its collector from the loaded contents.
func (e *Engine[P]) Init() error {
	ev := e.evaluator(e.bases, e.counts)
	if e.pendingPlan {
		// ANALYZE the loaded contents into the engine-owned collector (estimates
		// look columns up by name, in any column order), then plan from it.
		for rel, r := range e.bases {
			data.ObserveRelation(e.stats, rel, r)
		}
		for rel, r := range e.counts {
			data.ObserveRelation(e.stats, rel, r)
		}
		o := e.pendingOrder
		if o == nil {
			var err error
			if o, err = e.chooseOrder(); err != nil {
				return err
			}
		}
		if err := e.plan(o); err != nil {
			return err
		}
		e.pendingPlan = false
		e.pendingOrder = nil
	}
	ev.done = func(n *viewtree.Node, rel *data.Relation[P]) { e.views[n] = data.NewIndexedRelation(rel) }
	ev.eval(e.root)

	// Seed indicator trackers from loaded base contents, in declared order.
	for rel, leaves := range e.indLeaves {
		sch, each := ev.source(rel)
		if sch == nil {
			continue
		}
		rd, _ := e.q.Rel(rel)
		proj := data.MustProjector(sch, rd.Schema)
		for _, leaf := range leaves {
			tr := e.trackers[leaf]
			each(func(t data.Tuple, _ *P) { tr.Update(proj.Apply(t), 1) })
		}
	}

	// Register the probe indexes required by the delta plans.
	for _, plan := range e.plans {
		plan.bind()
	}
	e.bases, e.counts = nil, nil
	e.ready = true
	return nil
}

// evaluator returns the engine's bottom-up evaluator over the given initial
// contents: it folds the views µ does not store, and applies the payload
// transform.
func (e *Engine[P]) evaluator(bases map[string]*data.Relation[P], counts map[string]*data.Relation[int64]) *evaluator[P] {
	ev := newEvaluator(e.ring, e.lift, func(rel string) *data.Relation[P] { return bases[rel] })
	ev.counts, ev.lean = counts, true
	ev.xform = e.opts.PayloadTransform
	ev.stored = func(n *viewtree.Node) bool { return e.mat[n] }
	return ev
}

// Result returns the root view: the maintained query result, as a live
// handle that updates mutate in place. It is not safe to read while another
// goroutine applies deltas.
//
// Deprecated: read through Snapshot (or a serve.Reader pinned on one)
// instead; the live handle is only safe quiescently, on the maintenance
// goroutine.
func (e *Engine[P]) Result() *data.Relation[P] {
	if v, ok := e.views[e.root]; ok {
		return v.Relation
	}
	return data.NewRelation(e.ring, e.root.Keys)
}

// ViewCount returns the number of materialized views.
func (e *Engine[P]) ViewCount() int {
	n := 0
	for _, m := range e.mat {
		if m {
			n++
		}
	}
	return n
}

// MemoryBytes estimates the heap bytes held by all materialized views
// (data.Relation.MemoryBytes: pooled entries included).
func (e *Engine[P]) MemoryBytes() int {
	total := 0
	for _, v := range e.views {
		total += v.MemoryBytes()
	}
	return total
}

// PoolStats reports the storage the engine retains for reuse: the entry
// pools of its views (Free, Reclaimed), the snapshot arenas of the views it
// publishes (Arena) and the key and tuple slabs of its delta plans' scratch
// relations (KeyBytes, TupleBytes). Maintenance-goroutine only.
func (e *Engine[P]) PoolStats() data.PoolStats {
	var ps data.PoolStats
	ps.Arena.Headers = e.pub.free.Stats()
	for _, v := range e.views {
		ps.Add(v.PoolStats())
	}
	for _, plan := range e.plans {
		for _, st := range plan.steps {
			if st.out != nil {
				ps.AddSlabs(st.out.PoolStats())
			}
		}
	}
	return ps
}

// publishThenReclaim closes an applied batch: it publishes the batch's epoch
// if publication is enabled, then — the batch's work items and index probes
// all being dead, and the publication done reading the dirty keys — every
// view reclaims the entries the batch removed (data.Relation.Reclaim), which
// overwrites their key bytes.
func (e *Engine[P]) publishThenReclaim() error {
	e.pub.next(e.epoch)
	for _, v := range e.views {
		v.Reclaim()
	}
	return nil
}

// check is the engine's admission rule (checkUpdate).
func (e *Engine[P]) check(rel string, delta *data.Relation[P]) error {
	return checkUpdate(e.ready, e.q, e.updatable, rel, delta)
}

// applyDelta is the engine's update rule: it propagates an update to one
// relation along its leaf-to-root path (Figure 4), maintaining every
// materialized view on the way, then propagates any induced indicator deltas
// in sequence.
func (e *Engine[P]) applyDelta(rel string, delta *data.Relation[P]) error {
	// Every updatable relation has a leaf, and plan compiled its delta plan.
	leaf := e.root.LeafOf(rel)
	plan := e.plans[leaf]

	// Normalize the delta to the leaf's schema order.
	if !delta.Schema().Equal(leaf.Keys) {
		delta = data.Project(delta, leaf.Keys)
	}

	// Derive indicator deltas from the leaf's presence transitions before
	// merging (the tracker needs appear/disappear events, which we observe
	// against the pre-merge leaf view when the leaf is stored).
	indDeltas := e.indicatorDeltas(rel, delta)

	if err := plan.run(e, delta); err != nil {
		return err
	}
	for _, id := range indDeltas {
		if err := id.plan.run(e, id.delta); err != nil {
			return err
		}
	}
	return nil
}

type indicatorDelta[P any] struct {
	plan  *deltaPlan[P]
	delta *data.Relation[P]
}

// indicatorDeltas computes the deltas of rel's indicator projections caused
// by applying delta, updating the trackers.
func (e *Engine[P]) indicatorDeltas(rel string, delta *data.Relation[P]) []indicatorDelta[P] {
	leaves := e.indLeaves[rel]
	if len(leaves) == 0 {
		return nil
	}
	baseLeaf := e.root.LeafOf(rel)
	base := e.views[baseLeaf]
	if base == nil {
		panic(fmt.Sprintf("ivm: indicator base %q not materialized", rel))
	}
	// Determine presence transitions per delta tuple: present before vs
	// after merging this delta entry's payload. The merge itself happens in
	// the main plan run; here we only simulate payload sums.
	type transition struct {
		t data.Tuple
		d int64 // +1 appear, -1 disappear
	}
	var transitions []transition
	delta.Iterate(func(t data.Tuple, p P) bool {
		old, had := base.Get(t)
		var now P
		if had {
			now = e.ring.Add(old, p)
		} else {
			now = p
		}
		hasNow := !e.ring.IsZero(now)
		switch {
		case !had && hasNow:
			transitions = append(transitions, transition{t: t, d: 1})
		case had && !hasNow:
			transitions = append(transitions, transition{t: t, d: -1})
		}
		return true
	})

	var out []indicatorDelta[P]
	for _, leaf := range leaves {
		tr := e.trackers[leaf]
		d := data.NewRelation(e.ring, leaf.Keys)
		one := e.ring.One()
		for _, x := range transitions {
			pt, flip := tr.Update(x.t, x.d)
			switch flip {
			case 1:
				d.Merge(pt, one)
			case -1:
				d.Merge(pt, e.ring.Neg(one))
			}
		}
		if d.Len() == 0 {
			continue
		}
		plan := e.plans[leaf]
		if plan == nil {
			p, err := e.buildPlan(leaf)
			if err != nil {
				panic(err)
			}
			e.plans[leaf] = p
			p.bind()
			plan = p
		}
		out = append(out, indicatorDelta[P]{plan: plan, delta: d})
	}
	return out
}
