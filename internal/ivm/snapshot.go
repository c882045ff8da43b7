package ivm

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/viewtree"
)

// ViewSnapshot is one published epoch of an Engine's or a Parallel's state,
// taken after some whole applied batch, never mid-batch. An epoch carries exactly what a
// reader can name:
//
//   - the query result, always;
//   - the catalogue of an engine's materialized views (View, Views, ViewOf),
//     only in epochs published after the engine was asked for it
//     (Engine.Catalog). The views below the root are maintenance state:
//     until someone asks, they are never snapshotted and pay no dirty
//     tracking on the write path.
//
// Everything in one epoch is mutually consistent. Snapshots are published
// with a single atomic pointer swap, so any number of reader goroutines can
// pin an epoch and read it lock-free while maintenance keeps streaming; see
// internal/serve for reader handles.
//
// An epoch is a lease. The publication pointer holds one reference while the
// epoch is current and every handle from Snapshot or Catalog one more; the
// last Release returns the rows and chunks only this epoch still read to the
// writer at its next publish, and gives this
// struct back for a later epoch to be built in: after it not even Epoch may be
// read. Release is optional: a forgotten handle stays readable while
// reachable, is collected, not recycled, at the cost of a full GC cycle, and
// the rows and chunks it reads wait for that collection
// (data.ArenaStats.BackstopReclaims counts those). An
// *Entry or an in-place ring's payload read from the epoch is valid until
// that Release, not merely "while reachable".
type ViewSnapshot[P any] struct {
	// Epoch counts published snapshots: 0 at enablement, +1 per applied
	// batch. Within one maintainer it is strictly monotonic.
	Epoch uint64
	// At is the publication wall time, the reference point of the
	// freshness-lag metric (the time elapsed since At bounds a reader's
	// staleness).
	At time.Time
	// Patched is the publish work this epoch cost: the dirty keys patched
	// into its relation snapshots (every key, for a Parallel's reduction).
	Patched int

	lease      Lease
	superseded atomic.Bool                     // the maintainer has published past this epoch
	home       *data.Recycler[ViewSnapshot[P]] // where the last Release puts the struct

	result *data.RelationSnapshot[P]
	// The catalogue; all nil in result-only epochs.
	views  map[string]*data.RelationSnapshot[P]
	byNode map[*viewtree.Node]*data.RelationSnapshot[P]
	names  []string
}

// Lease is the acquisition protocol of a published epoch (ViewSnapshot,
// db.Epoch): a reference count. The last Drop gives the epoch struct back to
// its publisher, which builds a later epoch in it, so a reader may TryRetain
// through a pointer it loaded long ago and find another epoch there. That is
// safe because a count leaves zero in one place only: the publisher Opens the
// struct fully built and already installed (Swap it in, Open it, Release the
// one it replaced). A stale TryRetain thus succeeds only on an epoch current
// after the pointer was loaded — no reader goes backwards — and one that
// lands between Swap and Open reloads.
type Lease struct{ refs atomic.Int32 }

// Open sets the count to one: the publication pointer's reference.
func (l *Lease) Open() { l.refs.Store(1) }

// TryRetain adds a reference unless the last one is gone. A reader loops:
// load the publication pointer, TryRetain, reload on failure.
func (l *Lease) TryRetain() bool {
	n := l.refs.Load()
	for n > 0 && !l.refs.CompareAndSwap(n, n+1) {
		n = l.refs.Load()
	}
	return n > 0
}

// Drop removes a reference and reports whether it was the last.
func (l *Lease) Drop() bool { return l.refs.Add(-1) == 0 }

// Retain adds a reference for another owner; the caller must hold one itself.
// A count found at zero is an epoch already given back, and panics.
func (s *ViewSnapshot[P]) Retain() {
	if s != nil && !s.lease.TryRetain() {
		panic("ivm: Retain on a ViewSnapshot whose last reference was released")
	}
}

// Release drops one reference, the last one the epoch's relation snapshots
// with it, and puts the struct, scribbled, where the next publish takes it.
// Safe from any goroutine, nil-safe.
func (s *ViewSnapshot[P]) Release() {
	if s == nil || !s.lease.Drop() {
		return
	}
	s.result.Release()
	for _, rs := range s.byNode {
		if rs != s.result {
			rs.Release()
		}
	}
	clear(s.views)
	clear(s.byNode)
	s.Epoch, s.result, s.names = ^uint64(0), nil, nil
	s.home.Put(s)
}

// Superseded reports whether a later epoch was published: one atomic load.
func (s *ViewSnapshot[P]) Superseded() bool { return s.superseded.Load() }

// Result returns the snapshot of the maintained query result.
func (s *ViewSnapshot[P]) Result() *data.RelationSnapshot[P] { return s.result }

// View returns the snapshot of the named materialized view, or nil — always
// nil in an epoch without the catalogue. Names are Engine.ViewNames.
func (s *ViewSnapshot[P]) View(name string) *data.RelationSnapshot[P] { return s.views[name] }

// Views returns the sorted catalogue of view names in this snapshot (empty
// without the catalogue). Shared across epochs: do not modify.
func (s *ViewSnapshot[P]) Views() []string { return s.names }

// ViewOf returns the snapshot of a view-tree node's materialization, or nil
// (always nil without the catalogue). The factorized result representation
// enumerates through it.
func (s *ViewSnapshot[P]) ViewOf(n *viewtree.Node) *data.RelationSnapshot[P] { return s.byNode[n] }

// publishing is the driver of the maintainers that publish epochs, Engine and
// Parallel: the batch driver plus the publisher, and Snapshot. The figures'
// competitors embed the bare driver and publish nothing.
type publishing[P any] struct {
	driver[P]
	pub publisher[P]
	// epoch snapshots the result for publication, into the header it is given.
	epoch func(*ViewSnapshot[P])
}

// Snapshot returns a lease (see ViewSnapshot) on the latest published epoch
// of the result, enabling publication on first use; see publisher for the
// concurrency contract.
func (p *publishing[P]) Snapshot() *ViewSnapshot[P] { return p.pub.snapshot(p.epoch) }

// publisher is the epoch machinery an Engine or a Parallel holds through
// publishing: an atomic pointer to the latest published snapshot. A nil
// pointer means publication is not enabled; the first Snapshot call enables
// it.
//
// The publication contract:
//
//   - An epoch carries the result. Nothing else the maintainer stores —
//     shard-local or internal views — is published; only Engine can add its
//     view catalogue, on request.
//   - The first Snapshot call must not race ApplyDelta/ApplyDeltas: call it
//     once from the maintenance goroutine (typically right after Init) to
//     enable publication.
//   - Once enabled, the maintainer publishes a fresh epoch at the end of
//     every ApplyDelta/ApplyDeltas call, and Snapshot may be called from any
//     goroutine: an atomic load plus the lease acquisition. Installing the
//     next epoch drops the pointer's reference on the one it replaces.
//   - Maintainers that were never asked for a Snapshot pay nothing on the
//     maintenance path beyond one atomic load per applied batch.
type publisher[P any] struct {
	cur  atomic.Pointer[ViewSnapshot[P]]
	free data.Recycler[ViewSnapshot[P]]
}

// header returns the struct the next epoch is built in: one a last Release
// gave back, or a new one.
func (p *publisher[P]) header() *ViewSnapshot[P] {
	s := p.free.Take()
	if s == nil {
		s = &ViewSnapshot[P]{home: &p.free}
	}
	s.superseded.Store(false)
	return s
}

// publish has fill build the next epoch, stamps it and installs it.
func (p *publisher[P]) publish(fill func(*ViewSnapshot[P])) {
	s := p.header()
	fill(s)
	if prev := p.cur.Load(); prev != nil {
		s.Epoch = prev.Epoch + 1
	}
	s.At = time.Now()
	p.install(s)
}

// install swaps s in, opens its lease — in that order, see Lease — and drops
// the pointer's reference on what it replaces.
func (p *publisher[P]) install(s *ViewSnapshot[P]) {
	prev := p.cur.Swap(s)
	s.lease.Open()
	if prev != nil {
		prev.superseded.Store(true)
		prev.Release()
	}
}

// snapshot is Snapshot: a lease on the latest epoch, or — the call that
// enables publication — on a first one built by fill.
func (p *publisher[P]) snapshot(fill func(*ViewSnapshot[P])) *ViewSnapshot[P] {
	for {
		s := p.cur.Load()
		if s == nil {
			p.publish(fill)
		} else if s.lease.TryRetain() {
			return s
		}
	}
}

// next is called exactly once at the end of every applied batch: a fresh
// epoch if publication is enabled.
func (p *publisher[P]) next(fill func(*ViewSnapshot[P])) {
	if p.cur.Load() != nil {
		p.publish(fill)
	}
}

// --- engine ------------------------------------------------------------------

// Catalog returns the latest published snapshot with the catalogue of every
// materialized view in it. The first call is the request: like the first
// Snapshot call it must come from the maintenance goroutine, between batches.
// It snapshots the views as they stand, republishes the current epoch with
// them attached (same Epoch and At: the state is the same), and from the
// next batch on every epoch carries the catalogue, at the cost of dirty
// tracking on every view. Afterwards Catalog is Snapshot, a lease, from any
// goroutine. A reader pinned before the request keeps its result-only epoch.
func (e *Engine[P]) Catalog() *ViewSnapshot[P] {
	s := e.Snapshot()
	if s.names != nil {
		return s
	}
	e.catalog = true
	up := e.pub.header()
	up.Epoch, up.At, up.Patched, up.result = s.Epoch, s.At, s.Patched, s.result
	up.result.Retain() // the upgraded epoch shares the result with the one it replaces
	e.fillCatalog(up)
	e.pub.install(up)
	s.Release()
	return e.Snapshot()
}

// epoch snapshots the root view, maintained in place (O(changed keys), via
// relation dirty tracking) — plus every other materialized view once the
// catalogue was requested — into the next epoch.
func (e *Engine[P]) epoch(s *ViewSnapshot[P]) {
	// Before Init, Result is an empty relation: a well-formed empty epoch.
	r := e.Result()
	s.Patched, _ = r.DirtyKeys()
	s.result = r.Snapshot()
	if e.catalog {
		e.fillCatalog(s)
	}
}

// fillCatalog snapshots every materialized view below the root into s, whose
// result is already set; a recycled s brings its maps, emptied.
func (e *Engine[P]) fillCatalog(s *ViewSnapshot[P]) {
	if s.views == nil {
		s.views = make(map[string]*data.RelationSnapshot[P], len(e.views))
		s.byNode = make(map[*viewtree.Node]*data.RelationSnapshot[P], len(e.views))
	}
	for node, ir := range e.views {
		rs := s.result
		if node != e.root {
			n, _ := ir.DirtyKeys()
			s.Patched += n
			rs = ir.Snapshot()
		}
		s.views[e.names[node]] = rs
		s.byNode[node] = rs
	}
	if len(e.catNames) != len(e.views) {
		e.catNames = e.ViewNames()
	}
	s.names = e.catNames
}

// nameViews assigns every view-tree node its catalog name — Node.Name, made
// unique with a numeric suffix in the (not expected) event of a collision —
// and records the reverse map for ViewByName.
func (e *Engine[P]) nameViews() {
	e.names = make(map[*viewtree.Node]string)
	e.byName = make(map[string]*viewtree.Node)
	e.root.Walk(func(n *viewtree.Node) {
		name := n.Name()
		if _, taken := e.byName[name]; taken {
			base := name
			for i := 2; ; i++ {
				name = base + "#" + strconv.Itoa(i)
				if _, taken := e.byName[name]; !taken {
					break
				}
			}
		}
		e.names[n] = name
		e.byName[name] = n
	})
}

// ViewNames returns the catalog of view names the engine materializes, in
// sorted order. Every name resolves through ViewByName and appears in every
// ViewSnapshot that carries the catalogue.
func (e *Engine[P]) ViewNames() []string {
	out := make([]string, 0, len(e.views))
	for node := range e.views {
		out = append(out, e.names[node])
	}
	sort.Strings(out)
	return out
}

// ViewByName returns the live materialized relation of the named view
// (Node.Name form, e.g. "V@C[A,B]" or a leaf's relation name), or nil if
// the name is unknown or the view is not materialized. Like Result and
// ViewOf, the returned relation is a live handle — use Catalog().View(name)
// for a consistent, concurrency-safe read.
func (e *Engine[P]) ViewByName(name string) *data.Relation[P] {
	node, ok := e.byName[name]
	if !ok {
		return nil
	}
	return e.ViewOf(node)
}

// --- parallel ----------------------------------------------------------------

// epoch is what a Parallel publishes: the shard results reduced key-wise and
// sealed.
func (p *Parallel[P]) epoch(s *ViewSnapshot[P]) {
	// Reduce straight into a sealed snapshot: one sort over the gathered
	// shard entries instead of a merge through a fresh hash relation
	// (payloads are copied, so the live shard results stay free to mutate in
	// later batches).
	p.reduceParts = p.reduceParts[:0]
	for _, m := range p.shards {
		p.reduceParts = append(p.reduceParts, m.Result())
	}
	s.result = data.ReduceSealed(p.ring, p.reduceParts[0].Schema(), p.reduceParts)
	s.Patched = s.result.Len()
}
