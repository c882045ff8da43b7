// Package ivm implements incremental view maintenance strategies over view
// trees: the paper's F-IVM engine (factorized higher-order IVM), plus the
// competitors it is evaluated against — first-order IVM (1-IVM), fully
// recursive higher-order IVM (DBToaster-style), and full re-evaluation.
//
// All strategies implement the Maintainer interface, so the benchmark
// harness and the differential tests drive them uniformly.
package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// Maintainer is a strategy that maintains a query result under updates.
type Maintainer[P any] interface {
	// Load installs initial contents for a relation; must precede Init.
	Load(rel string, r *data.Relation[P]) error
	// Init computes the initial state from loaded relations.
	Init() error
	// ApplyDelta maintains the result under an update to one relation.
	// Deletions are encoded as entries with additively inverted payloads.
	ApplyDelta(rel string, delta *data.Relation[P]) error
	// ApplyDeltas maintains the result under a batch of updates to any mix
	// of relations, equivalent to applying them in order via ApplyDelta but
	// traversing each maintenance path once per batch.
	ApplyDeltas(batch []NamedDelta[P]) error
	// Result returns the maintained query result as a live handle: the
	// relation the strategy keeps updating in place. It is NOT safe to read
	// while another goroutine runs ApplyDelta/ApplyDeltas, and reads
	// interleaved with updates on one goroutine may observe each batch's
	// effects only as a whole.
	//
	// Deprecated: the live handle is a footgun outside the maintenance
	// goroutine. Read through Snapshot (or a serve.Reader pinned on one),
	// which is race-free and observes only whole applied batches. Result
	// remains for quiescent single-goroutine use and internal reductions.
	Result() *data.Relation[P]
	// Snapshot returns the latest published consistent snapshot of the
	// result: its state after some whole applied batch, never mid-batch.
	// Only the result is published — whatever else the strategy stores is
	// maintenance state (Engine.Catalog adds an engine's views on request).
	// The first call enables publication and must come from the maintenance
	// goroutine (typically right after Init); afterwards every applied batch
	// publishes a fresh epoch and Snapshot is safe from any goroutine.
	Snapshot() *ViewSnapshot[P]
	// ViewCount reports how many views the strategy materializes.
	ViewCount() int
	// MemoryBytes estimates the bytes held by materialized state.
	MemoryBytes() int
}

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
	// is in use, the engine owns a fresh collector, seeds it from loaded
	// relations at Init, and keeps it current from the update stream.
	Stats *data.Stats
	// CostMaterialize replaces the structural materialization rule with the
	// cost-based policy: a probed view whose estimated footprint and merge
	// traffic exceed the cost of probing its children inline is not stored
	// (viewtree.CostMaterialize). Ignored when MaterializeAll or a payload
	// transform demands the full hierarchy.
	CostMaterialize bool
	// AutoReoptimize enables adaptive re-optimization: when observed
	// statistics drift past the thresholds mid-stream, the engine re-plans
	// and migrates, rebuilding only views whose definitions changed and
	// reusing matching materialized relations. It forces every leaf to be
	// materialized (migration rebuilds from leaf contents) and is
	// incompatible with Indicators and PayloadTransform.
	AutoReoptimize bool
	// NoLiveStats plans from the supplied (or Init-seeded) statistics and
	// then stops collecting: no leaf transition feeds, no per-delta rate
	// observations. Set it when statistics are maintained centrally — a
	// db.DB observes the coalesced stream once for all of its views, so
	// per-view collection would be redundant work. Incompatible with
	// AutoReoptimize, which needs a live collector to detect drift.
	NoLiveStats bool
}

// Engine is the F-IVM maintainer: one view tree for all relations, with
// views materialized according to µ(τ, U) and deltas propagated along
// leaf-to-root paths with factorized (aggregate-pushing) computation.
type Engine[P any] struct {
	driver[P] // ApplyDelta, ApplyDeltas, Snapshot over check, applyDelta, epoch and reclaim

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
	// the sorted catalogue across epochs; plan drops it (a replan renames
	// views), and a length mismatch rebuilds it.
	names    map[*viewtree.Node]string
	byName   map[string]*viewtree.Node
	catalog  bool
	catNames []string
	// indicator machinery
	indLeaves map[string][]*viewtree.Node // base relation -> indicator leaves
	trackers  map[*viewtree.Node]*viewtree.IndicatorTracker

	bases      map[string]*data.Relation[P] // initial contents, dropped after Init
	ownedBases map[string]bool              // bases transferred via LoadOwned (adopted, not cloned)
	ready      bool

	// optimizer state
	stats        *data.Stats
	ownStats     bool          // stats created (and seeded) by the engine, not the caller
	pendingPlan  bool          // planning deferred to Init, after loaded data seeds the stats
	pendingOrder *vorder.Order // explicit order awaiting deferred planning (nil: choose)
	planSnap     data.StatsSnapshot
	ticks        int
	replans      int
}

// New builds an F-IVM engine for the query over the given variable order.
//
// The order may be nil: the engine then plans for itself with the
// cost-based optimizer (vorder.Choose). With opts.Stats set, planning
// happens immediately; otherwise it is deferred to Init, after the loaded
// relations have seeded the engine's own statistics collector (an engine
// that starts empty plans from structural defaults and can later correct
// itself via AutoReoptimize).
func New[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P], opts Options[P]) (*Engine[P], error) {
	e := &Engine[P]{
		q:         q,
		ring:      r,
		lift:      lift,
		opts:      opts,
		updatable: make(map[string]bool),
		bases:     make(map[string]*data.Relation[P]),
	}
	e.driver = driver[P]{check: e.check, apply: e.applyDelta, epoch: e.epoch, reclaim: e.reclaim}
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

	if opts.AutoReoptimize && (opts.Indicators || opts.PayloadTransform != nil) {
		return nil, fmt.Errorf("ivm: AutoReoptimize is incompatible with Indicators and PayloadTransform")
	}
	if opts.AutoReoptimize && opts.NoLiveStats {
		return nil, fmt.Errorf("ivm: AutoReoptimize needs live statistics (NoLiveStats set)")
	}
	e.stats = opts.Stats
	if e.stats == nil && (o == nil || opts.AutoReoptimize || opts.CostMaterialize) {
		e.stats = data.NewStats()
		e.ownStats = true
	}
	if opts.Stats == nil && (o == nil || opts.CostMaterialize) {
		// The engine-owned collector is still empty: defer planning to Init
		// so order choice and the cost-based materialization decision see
		// the loaded data instead of structural defaults.
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
	return vorder.Choose(e.q, vorder.ChooseOptions{Model: e.costModel()})
}

// plan compiles the engine's static machinery for a prepared-or-fresh
// variable order: the view tree, indicator extensions, the materialization
// decision, and one delta plan per updatable leaf. Any previous machinery is
// discarded (replan rebuilds the view contents afterwards).
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
	e.catNames = nil
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
	// Adaptive engines keep every leaf: migration rebuilds changed views
	// bottom-up from leaf contents.
	if e.opts.AutoReoptimize {
		for _, leaf := range e.root.Leaves() {
			if !leaf.Indicator {
				mat[leaf] = true
			}
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

// Load installs the initial contents of a relation (before Init). The
// relation's schema must match the query's definition. The relation stays
// owned by the caller: Init copies it into the leaf view.
func (e *Engine[P]) Load(rel string, r *data.Relation[P]) error {
	if _, err := checkRel(e.q, rel, r); err != nil {
		return err
	}
	e.bases[rel] = r
	return nil
}

// LoadOwned is Load with ownership transfer: the engine adopts the relation
// as the leaf view's backing storage instead of cloning it at Init (when its
// column order already matches the query's declared schema), so externally
// assembled bases — e.g. a db.DB backfilling a late-created view — are
// ingested without a second copy. The caller must not touch the relation
// afterwards.
func (e *Engine[P]) LoadOwned(rel string, r *data.Relation[P]) error {
	if err := e.Load(rel, r); err != nil {
		return err
	}
	if e.ownedBases == nil {
		e.ownedBases = make(map[string]bool)
	}
	e.ownedBases[rel] = true
	return nil
}

// Init evaluates all materialized views bottom-up from the loaded
// relations (missing relations are empty) and registers the secondary
// indexes that delta propagation will probe. An engine constructed with a
// nil order and no pre-collected statistics plans here, after seeding its
// collector from the loaded contents.
func (e *Engine[P]) Init() error {
	if e.ownStats {
		// Seed the engine-owned collector from the loaded contents, in each
		// relation's canonical column order so sketches line up with the
		// leaf views that keep them current afterwards.
		for rel, base := range e.bases {
			rd, _ := e.q.Rel(rel)
			if !base.Schema().Equal(rd.Schema) {
				base = data.Project(base, rd.Schema)
			}
			data.ObserveRelation(e.stats, rel, base)
		}
	}
	if e.pendingPlan {
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

	var build func(n *viewtree.Node) *data.Relation[P]
	build = func(n *viewtree.Node) *data.Relation[P] {
		rel := e.evalFromChildren(n, build)
		if e.mat[n] {
			e.views[n] = newView(rel)
		}
		return rel
	}
	build(e.root)

	// Seed indicator trackers from loaded base contents.
	for rel, leaves := range e.indLeaves {
		base := e.bases[rel]
		if base == nil {
			continue
		}
		for _, leaf := range leaves {
			tr := e.trackers[leaf]
			base.Iterate(func(t data.Tuple, _ P) bool {
				tr.Update(t, 1)
				return true
			})
		}
	}

	// Register the probe indexes required by the delta plans.
	for _, plan := range e.plans {
		plan.bind()
	}
	if e.opts.NoLiveStats {
		// Planning is done; a centrally collected feed (the DB's) replaces
		// per-engine observation, so drop the collector from the hot path.
		e.stats = nil
	}
	e.attachLeafStats()
	if e.stats != nil {
		e.planSnap = e.stats.Snapshot()
	}
	e.bases = nil
	e.ownedBases = nil
	e.ready = true
	return nil
}

// attachLeafStats hooks the statistics collector into every stored leaf
// relation, so cardinality transitions and value sketches stay exact on the
// merge path at one nil-check of overhead.
func (e *Engine[P]) attachLeafStats() {
	if e.stats == nil {
		return
	}
	for _, leaf := range e.root.Leaves() {
		if leaf.Indicator {
			continue
		}
		if v := e.views[leaf]; v != nil {
			v.CollectStats(e.stats.Rel(leaf.Rel, leaf.Keys))
		}
	}
}

// evalFromChildren computes a view's contents from its children via the
// supplied recursive evaluator.
func (e *Engine[P]) evalFromChildren(n *viewtree.Node, eval func(*viewtree.Node) *data.Relation[P]) *data.Relation[P] {
	if n.IsLeaf() {
		if n.Indicator {
			return indicatorContents(e.ring, n.Keys, e.bases[n.Rel])
		}
		if base, ok := e.bases[n.Rel]; ok {
			// Normalize to the declared schema order.
			rd, _ := e.q.Rel(n.Rel)
			if base.Schema().Equal(rd.Schema) {
				if e.ownedBases[n.Rel] {
					// Ownership was transferred via LoadOwned: adopt the
					// relation as the leaf's backing storage, no copy.
					return base
				}
				return base.Clone()
			}
			return data.Project(base, rd.Schema)
		}
		rd, _ := e.q.Rel(n.Rel)
		return data.NewRelation(e.ring, rd.Schema)
	}
	rels := make([]*data.Relation[P], 0, len(n.Children))
	for _, c := range n.Children {
		rels = append(rels, eval(c))
	}
	joined := data.JoinAll(rels...)
	agg := data.MarginalizeVars(joined, joined.Schema().Intersect(n.Marg), e.lift)
	out := data.Project(agg, n.Keys)
	if e.opts.PayloadTransform != nil {
		xf := data.NewRelation(e.ring, n.Keys)
		out.Iterate(func(t data.Tuple, p P) bool {
			xf.Merge(t, e.opts.PayloadTransform(n, p))
			return true
		})
		out = xf
	}
	return out
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

// newView wraps a relation Init or a replan evaluated as a materialized view,
// declaring its reclaim point, and with it its own rows, before any insert.
func newView[P any](rel *data.Relation[P]) *data.IndexedRelation[P] {
	ir := data.NewIndexedRelation(rel)
	ir.Reclaim()
	return ir
}

// reclaim is the engine's end-of-batch hook, after the epoch is published:
// the batch's work items and index probes all being dead, every view reclaims
// the entries the batch removed (data.Relation.Reclaim).
func (e *Engine[P]) reclaim() {
	for _, v := range e.views {
		v.Reclaim()
	}
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

	if e.stats != nil {
		// Update-rate signal (and, for unstored leaves, approximate
		// cardinality): stored leaves report exact transitions themselves.
		data.ObserveDeltaRelation(e.stats, rel, leaf.Keys, delta)
	}

	if err := plan.run(e, delta); err != nil {
		return err
	}
	for _, id := range indDeltas {
		if err := id.plan.run(e, id.delta); err != nil {
			return err
		}
	}
	if e.opts.AutoReoptimize {
		return e.maybeReoptimize()
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
