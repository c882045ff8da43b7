package db

import (
	"fmt"
	"reflect"
	"time"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/serve"
	"fivm/internal/vorder"
)

// ViewOptions configures one registered view.
type ViewOptions struct {
	// Order supplies a fresh variable order for the view's engine (orders
	// hold per-query state). Nil lets the cost-based optimizer choose, from
	// an ANALYZE of the stored rows the view is backfilled from.
	Order func() *vorder.Order
	// Workers has no effect: a view is maintained by one engine. It stays
	// only because the benchmark module sets it, and ROADMAP ground rule (c)
	// pins what the benchmark calls; ROADMAP item 1 deletes it.
	Workers int
	// Updatable restricts which base relations this view expects deltas
	// from (ivm.Options.Updatable); empty means all of the query's.
	Updatable []string
	// ComposeChains and CostMaterialize are the engine's corresponding
	// options.
	ComposeChains   bool
	CostMaterialize bool
}

// View is the typed handle of one registered view: its engine plus the
// conversion machinery that turns shared base deltas into ring payloads.
// Reads go through Snapshot/Reader (any goroutine); everything else is
// maintenance-goroutine only.
type View[P any] struct {
	db   *DB
	name string
	q    query.Query
	ring ring.Ring[P]
	m    *ivm.Engine[P]

	ringKey any      // conversion-sharing identity: the ring value, or a per-view sentinel
	updRels []string // relations observed for deltas (Updatable or all)
	scratch []ivm.NamedDelta[P]
	seen    map[string]bool // per-observe relation dedup, reused across batches

	vstats ViewStats
}

// convCache shares converted deltas across views: within one applied batch,
// every view over the same payload ring receives the identical delta
// relation for a given base relation, so the conversion (coalescing under the
// keys the base store encoded, payload lifting) runs once per (ring, relation)
// instead of once per view.
// Entries persist across batches as cleared scratch; seq tags which batch a
// conversion belongs to.
type convCache struct {
	m   map[convKey]*convEntry
	seq uint64
}

// convKey identifies a shared conversion: the ring VALUE (not just its
// type — a parameterized ring with different field values must not share)
// and the base relation. Rings whose dynamic type is not comparable get a
// per-view sentinel key instead, opting out of sharing.
type convKey struct {
	ring any
	rel  string
}

type convEntry struct {
	rel any // *data.Relation[P]
	seq uint64
}

// CreateView registers a maintained view under name: a group-by aggregate
// query over the DB's base relations with its own payload ring and lifting.
// The view is backfilled from the current base relations — creating it
// mid-stream yields exactly the state it would have had from the start — and
// begins receiving every subsequent Apply. A fresh cross-view epoch carrying
// it is published before CreateView returns.
//
// CreateView is a package function rather than a method because each view
// carries its own payload type (Go methods cannot add type parameters).
func CreateView[P any](d *DB, name string, q query.Query, r ring.Ring[P], lift data.LiftFunc[P], opts ViewOptions) (*View[P], error) {
	if name == "" {
		return nil, fmt.Errorf("db: empty view name")
	}
	if err := d.writable(); err != nil {
		return nil, err
	}
	if d.HasView(name) {
		return nil, fmt.Errorf("db: view %q already exists", name)
	}
	if len(q.Rels) == 0 {
		return nil, fmt.Errorf("db: view %q query has no relations", name)
	}
	for _, rd := range q.Rels {
		sch, ok := d.store.Schema(rd.Name)
		if !ok {
			return nil, fmt.Errorf("db: view %q references unknown relation %q", name, rd.Name)
		}
		if !sch.SameSet(rd.Schema) {
			return nil, fmt.Errorf("db: view %q declares %q with schema %v, catalog has %v",
				name, rd.Name, rd.Schema, sch)
		}
	}

	var o *vorder.Order
	if opts.Order != nil {
		o = opts.Order()
	}
	// Without statistics of its own, an engine that chooses its order or
	// materializes by cost plans at Init, from the rows LoadCounts hands it.
	m, err := ivm.New[P](q, o, r, lift, ivm.Options[P]{
		Updatable:       opts.Updatable,
		ComposeChains:   opts.ComposeChains,
		CostMaterialize: opts.CostMaterialize,
	})
	if err != nil {
		return nil, err
	}

	v := &View[P]{
		db:      d,
		name:    name,
		q:       q,
		ring:    r,
		m:       m,
		updRels: q.RelNames(),
	}
	if rt := reflect.TypeOf(r); rt != nil && rt.Comparable() {
		v.ringKey = r
	} else {
		v.ringKey = v // unique sentinel: no cross-view sharing for this ring
	}
	if len(opts.Updatable) > 0 {
		v.updRels = opts.Updatable
	}

	// Backfill from the shared base store: the engine reads its relations in
	// place, lifting each multiplicity into the view's ring as it goes.
	for _, rel := range q.RelNames() {
		if base := d.store.Base(rel); base != nil && base.Len() > 0 {
			if err := m.LoadCounts(rel, base); err != nil {
				return nil, err
			}
		}
	}
	if err := m.Init(); err != nil {
		return nil, err
	}
	// Enable snapshot publication: every applied batch now publishes an
	// epoch, which the DB's cross-view Epoch picks up.
	m.Snapshot().Release()

	d.registerView(v)
	return v, nil
}

// --- the ring-erased side the DB drives -------------------------------------

func (v *View[P]) viewName() string    { return v.name }
func (v *View[P]) queryRels() []string { return v.updRels }
func (v *View[P]) memoryBytes() int    { return v.m.MemoryBytes() }

func (v *View[P]) stats() ViewStats {
	st := v.vstats
	st.ViewCount = v.m.ViewCount()
	return st
}

// observe is the view's base-store hook: lift the batch's raw updates into
// this ring — once per distinct ring across all of the DB's views, via the
// shared conversion cache — and drive the engine once.
func (v *View[P]) observe(batch []data.BaseUpdate) error {
	start := time.Now()
	v.scratch = v.scratch[:0]
	if v.seen == nil {
		v.seen = make(map[string]bool, 4)
	}
	clear(v.seen)
	tuples := uint64(0)
	for _, u := range batch {
		// The first occurrence of each relation converts every update of
		// that relation in the batch (coalesced in-ring); later occurrences
		// are already folded in.
		if !v.seen[u.Rel] {
			v.seen[u.Rel] = true
			v.scratch = append(v.scratch, ivm.NamedDelta[P]{Rel: u.Rel, Delta: v.convert(u.Rel, batch)})
		}
		tuples += uint64(len(u.Tuples))
	}
	if err := v.m.ApplyDeltas(v.scratch); err != nil {
		return err
	}
	// The epoch the batch just published closes the accounting: its stamp is
	// the end of this view's maintenance, and the DB epoch reuses it.
	s := v.m.Snapshot()
	v.db.stamp = s.At
	v.vstats.Batches++
	v.vstats.Keys += tuples
	v.vstats.Maintain += s.At.Sub(start)
	v.vstats.PublishedKeys += uint64(s.Patched)
	s.Release()
	ps := v.m.PoolStats()
	for _, nd := range v.scratch {
		ps.AddSlabs(nd.Delta.PoolStats())
	}
	v.vstats.PoolFree, v.vstats.Reclaimed = ps.Free, ps.Reclaimed
	v.vstats.RowsRetired, v.vstats.RowsReused = ps.RowsRetired, ps.RowsReused
	v.vstats.ScratchKeyBytes, v.vstats.ScratchTupleBytes = ps.KeyBytes, ps.TupleBytes
	v.vstats.TuplesCopied = ps.TuplesCopied
	v.vstats.IndexTableBytes, v.vstats.SlabChunks = ps.TableBytes, ps.SlabChunks
	v.vstats.Arena = ps.Arena
	return nil
}

// convert lifts one relation's updates of the batch into the view's ring —
// merging by the keys and hashes the base store computed for the batch, not
// encoding the tuples again — and shares the result with every other view
// over the same ring type via the DB's conversion cache. The delta stores the
// batch's tuples as handed and, for a batch built in a data.BatchArena,
// reports them volatile: the engines then copy the tuples of the keys they
// adopt and their plan steps share none.
func (v *View[P]) convert(rel string, batch []data.BaseUpdate) *data.Relation[P] {
	if v.db.conv.m == nil {
		v.db.conv.m = make(map[convKey]*convEntry)
	}
	key := convKey{ring: v.ringKey, rel: rel}
	e := v.db.conv.m[key]
	if e != nil && e.seq == v.db.conv.seq {
		return e.rel.(*data.Relation[P])
	}
	n := 0
	for _, u := range batch {
		if u.Rel == rel {
			n += len(u.Tuples)
		}
	}
	var out *data.Relation[P]
	if e == nil {
		sch, _ := v.db.store.Schema(rel)
		out = data.NewRelation[P](v.ring, sch)
		out.RecycleCleared()
		e = &convEntry{rel: out}
		v.db.conv.m[key] = e
	} else {
		out = e.rel.(*data.Relation[P])
		out.Clear()
	}
	out.Reserve(n)
	one := v.ring.One()
	negOne := v.ring.Neg(one)
	for _, u := range batch {
		if u.Rel != rel {
			continue
		}
		var p P
		switch u.Mult {
		case 0, 1:
			p = one
		case -1:
			p = negOne
		default:
			p = data.Mult(v.ring, u.Mult)
		}
		data.MergeUpdate(out, u, p)
	}
	e.seq = v.db.conv.seq
	return out
}

// --- typed reads -------------------------------------------------------------

// Query returns the view's defining query.
func (v *View[P]) Query() query.Query { return v.q }

// Maintainer exposes the view's engine (for Explain-style introspection).
// Maintenance-goroutine only.
func (v *View[P]) Maintainer() *ivm.Engine[P] { return v.m }

// Snapshot returns a lease on the view's latest published snapshot (safe
// from any goroutine; Release it when done). For a set of views consistent
// at one applied batch, go through DB.Epoch and SnapshotOf instead.
func (v *View[P]) Snapshot() *ivm.ViewSnapshot[P] { return v.m.Snapshot() }

// Reader returns a serve.Reader pinned to the view's snapshot in the DB's
// latest cross-view epoch (falling back to the view's own latest snapshot if
// the epoch predates the view). One reader per reading goroutine; Close it
// when done.
func (v *View[P]) Reader() *serve.Reader[P] {
	e := v.db.Epoch()
	defer e.Release()
	return serve.NewReaderAt[P](v.m, SnapshotOf[P](e, v.name))
}

// SnapshotOf returns the named view's snapshot in a cross-view epoch, or nil
// when the epoch does not carry it (unknown name, dropped view, or a payload
// type mismatch). The snapshot is the epoch's, not a lease of its own: it is
// valid until the epoch is Released (Retain it to keep it longer).
func SnapshotOf[P any](e *Epoch, view string) *ivm.ViewSnapshot[P] {
	if e == nil {
		return nil
	}
	i, ok := e.cat.slot[view]
	if !ok {
		return nil
	}
	s, _ := e.views[i].snap.(*ivm.ViewSnapshot[P])
	return s
}

// ReaderFor returns a serve.Reader over the named view pinned at the DB's
// latest cross-view epoch. Safe from any goroutine; Refresh advances through
// the view's live publications, Close gives the pin back. The payload type
// must match the view's.
func ReaderFor[P any](d *DB, view string) (*serve.Reader[P], error) {
	d.mu.RLock()
	rv := d.views[view]
	d.mu.RUnlock()
	if rv == nil {
		return nil, fmt.Errorf("db: unknown view %q", view)
	}
	v, ok := rv.(*View[P])
	if !ok {
		return nil, fmt.Errorf("db: view %q has payload type %T, not the requested one", view, rv)
	}
	return v.Reader(), nil
}

// latestSnapshot implements registeredView.
func (v *View[P]) latestSnapshot() viewLease { return v.m.Snapshot() }
