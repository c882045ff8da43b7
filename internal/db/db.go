// Package db is the database-style top level of F-IVM: one DB owns the base
// relations, maintains any number of registered views over them, and serves
// epoch-consistent reads — the paper's "one view-tree machinery for every
// analytical task" turned into a system surface.
//
// A DB inverts the library's original data ownership. Instead of every
// maintainer privately ingesting (and copying) the same update stream, the
// DB ingests each delta batch exactly once into a shared base-relation store
// (data.BaseStore) and fans the coalesced per-relation deltas out to every
// registered view through the store's observe hooks. Views are registered
// with CreateView — each with its own payload ring, lifting, variable order
// (auto-chosen by the cost-based optimizer when omitted) and F-IVM engine —
// and may be created or dropped mid-stream: a late CreateView backfills from
// the current base relations, so its state is exactly as if it had been
// registered from the start.
//
// After every applied batch the DB publishes one cross-view Epoch: an
// immutable set of per-view snapshots all reflecting the same prefix of the
// update stream. Readers pin an Epoch (or a per-view serve.Reader on one)
// and read lock-free while maintenance streams on, then Release it (Epoch).
//
// Concurrency contract: Open, CreateView, Apply, DropView, and Exec are
// single-writer — call them from one maintenance goroutine. Epoch, the
// package-level snapshot/reader accessors, and everything reachable from an
// Epoch are safe from any goroutine at any time.
package db

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/sqlparse"
	"fivm/internal/wal"
)

// Catalog maps base relation names to their schemas; it is the same type
// the SQL front-end consumes.
type Catalog = sqlparse.Catalog

// Options configures a DB.
type Options struct {
	// DisableStats has no effect: a DB keeps no statistics, and a view
	// created without a variable order plans from an ANALYZE of the stored
	// rows it backfills from. It stays only because the benchmark module sets
	// it, and ROADMAP ground rule (c) pins what the benchmark calls; ROADMAP
	// item 1 deletes it.
	DisableStats bool
	// Durability, when non-nil, enables the write-ahead log: batches are
	// logged before they advance any in-memory state, SQL views persist in
	// the catalog, and Open recovers checkpoint + tail from the directory.
	Durability *DurabilityOptions
	// Follower opens the DB in replica mode: direct Apply / CreateView /
	// DropView / Exec are rejected, and state advances only through
	// ApplyReplicated with records shipped from a primary's WAL. A durable
	// follower re-logs each record to its own WAL under the primary's LSN
	// sequence, so restart resumes from the local log.
	Follower bool
	// Bootstrap seeds an in-memory follower from a transferred primary
	// checkpoint (Durability must be nil; durable followers materialize the
	// shipped checkpoint file into their WAL directory instead). Open reads
	// its rows into the store and keeps no reference to it.
	Bootstrap *wal.Checkpoint
}

// Update is one element of an applied batch: tuples of a base relation
// (Rel, Tuples) with a signed multiplicity (Mult: negative deletes, zero
// defaults to +1). The shared store copies the rows it keeps, but the views
// keep the caller's tuples for the keys they adopt, so callers must not mutate
// tuples (or reuse their backing arrays) after Apply. The exception is a
// batch decoded into a data.BatchArena (POST /apply, a follower's shipped
// frames): its updates carry the arena's mark, every consumer copies what
// outlives the batch, and the arena is rewound once Apply has returned.
type Update = data.BaseUpdate

// Insert builds an insertion update.
func Insert(rel string, tuples ...data.Tuple) Update {
	return Update{Rel: rel, Tuples: tuples, Mult: 1}
}

// Delete builds a deletion update.
func Delete(rel string, tuples ...data.Tuple) Update {
	return Update{Rel: rel, Tuples: tuples, Mult: -1}
}

// DB is the top-level database: shared base relations, registered maintained
// views, and cross-view epoch publication.
type DB struct {
	opts  Options
	store *data.BaseStore

	// registry of views; mu guards it for cross-goroutine readers
	// (ReaderFor), while all mutations stay on the maintenance goroutine.
	mu    sync.RWMutex
	views map[string]registeredView
	order []string
	// cat is the catalogue every epoch shares until view DDL changes it
	// (publish rebuilds it after DDL set it to nil). Never mutated once built.
	cat *epochCatalog
	// stamp is the publication time of the last view epoch the batch in
	// flight produced (zero: none yet); the DB epoch reuses it.
	stamp time.Time

	cur     atomic.Pointer[Epoch]
	free    data.Recycler[Epoch] // epoch structs whose last Release has come
	seq     uint64               // published epochs (bumped by Apply and view DDL)
	applied uint64               // applied update batches

	conv convCache
	// convSeq tags conversion-cache entries per fan-out attempt. It is
	// deliberately independent of the applied counter: a batch that fails
	// mid-fan-out does not advance applied, and a retry must not reuse the
	// failed attempt's cached conversions.
	convSeq uint64

	// Apply scratch, reused across calls (the store copies what it keeps).
	baseBatch []data.BaseUpdate
	// ingest is the intake accounting the next epoch carries (publish).
	ingest IngestStats

	// Durability state (nil/zero when Options.Durability is nil).
	log       *wal.Log
	ckptEvery uint64
	sinceCkpt uint64
	sqlViews  map[string]wal.ViewDef // persisted catalog: SQL-defined views
	recovery  *RecoveryInfo
	// recovering suppresses WAL writes while Open replays the log (replayed
	// operations are already in it); closing suppresses drop logging while
	// Close tears views down (they must survive restart).
	recovering bool
	closing    bool

	// Follower-mode state: replicating lifts the read-only guard while
	// ApplyReplicated drives a shipped record through the normal write paths
	// (maintenance goroutine only); replLSN is the last replicated LSN,
	// readable from any goroutine (the replication handshake reports it).
	replicating bool
	replLSN     atomic.Uint64
}

// registeredView is the ring-erased handle the DB keeps per view; the typed
// side lives in View[P].
type registeredView interface {
	viewName() string
	queryRels() []string
	observe(batch []data.BaseUpdate) error
	latestSnapshot() viewLease // a retained *ivm.ViewSnapshot[P]
	stats() ViewStats          // everything but MemoryBytes
	memoryBytes() int
}

// Open creates a DB over the cataloged base relations (registered in sorted
// name order, so iteration order is deterministic). The catalog is fixed at
// Open; views come and go afterwards via CreateView / DropView.
//
// With Options.Durability set, Open also opens the write-ahead log and
// recovers whatever the directory holds: the latest valid checkpoint seeds
// the base relations, persisted SQL views are re-created through the
// ordinary backfill path, and the WAL tail replays batch-by-batch — so the
// recovered epochs are exactly the uninterrupted run's. Recovery() reports
// what was restored.
func Open(cat Catalog, opts Options) (*DB, error) {
	if len(cat) == 0 {
		return nil, fmt.Errorf("db: empty catalog")
	}
	d := &DB{
		opts:  opts,
		store: data.NewBaseStore(),
		views: make(map[string]registeredView),
	}
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(cat[name]) == 0 {
			return nil, fmt.Errorf("db: relation %q has an empty schema", name)
		}
		if err := d.store.Register(name, cat[name]); err != nil {
			return nil, err
		}
	}
	d.publish(time.Now())
	if du := opts.Durability; du != nil {
		d.sqlViews = make(map[string]wal.ViewDef)
		d.ckptEvery = du.CheckpointEvery
		log, rec, err := wal.Open(wal.Options{
			Dir:          du.Dir,
			FS:           du.FS,
			Fsync:        du.Fsync,
			SyncInterval: du.SyncInterval,
			SegmentBytes: du.SegmentBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("db: open wal: %w", err)
		}
		d.log = log
		if err := d.recoverFrom(rec); err != nil {
			_ = log.Close()
			return nil, err
		}
	}
	if opts.Follower {
		if opts.Bootstrap != nil {
			if opts.Durability != nil {
				return nil, fmt.Errorf("db: Bootstrap is for in-memory followers; durable followers recover from their WAL directory")
			}
			if err := d.recoverFrom(&wal.Recovery{Checkpoint: opts.Bootstrap}); err != nil {
				return nil, err
			}
			d.replLSN.Store(opts.Bootstrap.LSN)
			d.opts.Bootstrap = nil // the rows are the store's now: the DB keeps no hold on the file bytes
		} else if d.log != nil {
			// A restarted durable follower resumes at its local log position;
			// local LSNs mirror the primary's (each shipped record is re-logged
			// under the same sequence).
			d.replLSN.Store(d.log.LSN())
		}
	} else if opts.Bootstrap != nil {
		return nil, fmt.Errorf("db: Bootstrap requires Follower mode")
	}
	return d, nil
}

// Relations returns the base relation names in registration (sorted) order.
func (d *DB) Relations() []string { return d.store.Relations() }

// Schema returns the canonical schema of a base relation.
func (d *DB) Schema(rel string) (data.Schema, bool) { return d.store.Schema(rel) }

// Base returns the shared multiplicity relation of a base relation. It is
// owned by the DB: safe to read only from the maintenance goroutine between
// Apply calls — the next Apply reuses the entries, keys and tuples included,
// of the rows it deletes — and never to mutate.
func (d *DB) Base(rel string) *data.Relation[int64] { return d.store.Base(rel) }

// Views returns the registered view names in creation order.
func (d *DB) Views() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// HasView reports whether a view is registered.
func (d *DB) HasView(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.views[name]
	return ok
}

// ViewStats is a view's cumulative maintenance accounting inside this DB.
type ViewStats struct {
	// Batches is the number of applied batches that reached the view.
	Batches uint64
	// Keys is the total number of update tuples fanned to the view (raw
	// count, before in-ring coalescing; duplicates and deletions included).
	Keys uint64
	// Maintain is the total wall time spent maintaining the view (delta
	// conversion plus strategy propagation plus snapshot publication).
	Maintain time.Duration
	// PublishedKeys is the total publish work: the dirty keys patched into
	// the view's snapshots, summed over its epochs (ivm.ViewSnapshot.Patched).
	PublishedKeys uint64
	// PoolFree, Reclaimed, ScratchKeyBytes and ScratchTupleBytes are the
	// storage the view retains for reuse, as of its last batch
	// (data.PoolStats): entries its relations hold parked, retired or free,
	// entries handed back for reuse so far, the key-slab bytes of the scratch
	// relations that feed it and that its delta plans fill, and the tuple-slab
	// bytes of those and of its views' rows. TuplesCopied counts the rows its
	// views bought cells for, RowsReused those written into a reused entry's
	// (by an insert or a replacement), RowsRetired the removed or replaced rows
	// waiting for an epoch a reader still holds.
	// IndexTableBytes is the bucket storage of its secondary indexes, held or
	// in stock, and SlabChunks the chunks behind the slabs: bought in the
	// first cycle of a workload, constant after it.
	// Zero for strategies that do not pool.
	PoolFree          int
	Reclaimed         uint64
	RowsRetired       int
	RowsReused        uint64
	ScratchKeyBytes   int
	ScratchTupleBytes int
	TuplesCopied      uint64
	IndexTableBytes   int
	SlabChunks        int
	// Arena is the snapshot arena of the relations the view publishes, as of
	// its last batch; Arena.BackstopReclaims counts forgotten leases.
	Arena data.ArenaStats
	// ViewCount and MemoryBytes describe the materialized state. MemoryBytes
	// walks it, so only ViewStatsOf fills it in.
	ViewCount   int
	MemoryBytes int
}

// ViewStatsOf returns a view's maintenance accounting (zero value for
// unknown names). Maintenance-goroutine only: it reads live state. Other
// goroutines read Epoch.Stats.
func (d *DB) ViewStatsOf(name string) ViewStats {
	d.mu.RLock()
	v := d.views[name]
	d.mu.RUnlock()
	if v == nil {
		return ViewStats{}
	}
	st := v.stats()
	st.MemoryBytes = v.memoryBytes()
	return st
}

// Applied returns the number of update batches applied so far.
func (d *DB) Applied() uint64 { return d.applied }

// MemoryBytes estimates the bytes held by the shared base store plus every
// registered view's materialized state. Maintenance-goroutine only.
func (d *DB) MemoryBytes() int {
	total := d.store.MemoryBytes()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, v := range d.views {
		total += v.memoryBytes()
	}
	return total
}

// Apply ingests one batch of updates: it is validated, logged to the WAL
// (when durability is enabled — before any in-memory state advances, so a
// failed or torn append changes nothing and recovery never sees a state the
// log does not), merged in place into the shared base store exactly once
// (each tuple's key encoded and hashed once; an inserted row is copied into
// the entry, key bytes and tuple cells a deleted row left behind, so the
// store's memory follows its contents and it keeps no caller's tuple), fanned
// out with those keys to every registered view — which lift it into their
// rings once per distinct ring, not once per view — and one cross-view Epoch
// is published at the end. It is the DB's only write path; deletions are
// updates with negative Mult.
//
// Multiplicities stay non-negative: a batch that would leave any stored row
// at a negative multiplicity — counting the store and the batch's own earlier
// updates, so a delete of an absent row — is refused whole, before the WAL
// append, with an error naming the relation and the row. A batch of inserts
// only is not checked. Replay, in recovery and on a follower, applies a
// logged batch as it was logged: a log written before this rule may hold
// such a delete, and replay leaves the row at the negative count it was
// applied with then.
//
// Failure atomicity: on any error the applied counter and the published
// epoch are untouched — a reader on serve.Reader can never observe a
// half-applied epoch. A WAL append error additionally poisons the log
// (ErrClosed on further appends): the on-disk tail is no longer trusted, and
// the caller should close and re-open to recover. A view-maintenance
// error mid-fan-out leaves the *unpublished* view states torn (some views
// ahead of others); treat it as fatal and rebuild from the log.
func (d *DB) Apply(batch []Update) error {
	if err := d.writable(); err != nil {
		return err
	}
	d.baseBatch = d.baseBatch[:0]
	for _, u := range batch {
		if len(u.Tuples) == 0 {
			continue
		}
		sch, ok := d.store.Schema(u.Rel)
		if !ok {
			return fmt.Errorf("db: unknown relation %q", u.Rel)
		}
		// Validate arity up front, so a rejected batch leaves the log and the
		// applied counter untouched.
		for _, t := range u.Tuples {
			if len(t) != len(sch) {
				return fmt.Errorf("db: %q tuple %v does not match schema %v", u.Rel, t, sch)
			}
		}
		d.baseBatch = append(d.baseBatch, u) // the arena mark travels with it
	}
	if err := d.store.Check(d.baseBatch); err != nil {
		return err
	}
	return d.applyBase(d.baseBatch, true)
}

// applyBase is the shared tail of Apply and WAL replay: log (optional), fan
// out, then — only after full success — advance the counters and publish the
// next epoch.
func (d *DB) applyBase(batch []data.BaseUpdate, logIt bool) error {
	if logIt && d.log != nil {
		if err := d.log.AppendBatch(d.applied+1, batch); err != nil {
			return fmt.Errorf("db: wal append: %w", err)
		}
	}
	d.convSeq++
	d.conv.seq = d.convSeq
	d.stamp = time.Time{}
	d.ingest.ArenaBytes = data.ArenaBytes(batch)
	// Advance the shared store once, then fan out to the views through the
	// store's observe hooks.
	if err := d.store.ApplyBatch(batch); err != nil {
		return err
	}
	d.applied++
	// One clock reading per batch: the last view to publish stamped it.
	at := d.stamp
	if at.IsZero() {
		at = time.Now()
	}
	d.publish(at)
	if d.ckptEvery > 0 && !d.recovering {
		// The batch above is applied and durable regardless: a checkpoint
		// failure here reports the checkpoint's error, not the batch's.
		if d.sinceCkpt++; d.sinceCkpt >= d.ckptEvery {
			if err := d.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropView unregisters a view: it is detached from the base stream, its
// worker pool (if any) is stopped, and the next published Epoch no longer
// carries it. Readers pinned on earlier epochs keep reading their snapshots.
func (d *DB) DropView(name string) error {
	if !d.closing {
		if err := d.writable(); err != nil {
			return err
		}
	}
	d.mu.RLock()
	v := d.views[name]
	d.mu.RUnlock()
	if v == nil {
		return fmt.Errorf("db: unknown view %q", name)
	}
	if d.log != nil && !d.recovering && !d.closing {
		// Log the drop before tearing down, so a crash between the two
		// re-creates and immediately drops rather than resurrecting.
		if err := d.log.AppendDropView(name); err != nil {
			return fmt.Errorf("db: wal append: %w", err)
		}
		delete(d.sqlViews, name)
	}
	d.store.Detach(name)
	d.mu.Lock()
	delete(d.views, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	d.cat = nil
	d.publish(time.Now())
	return nil
}

// Close drops every view (stopping worker pools) without logging the drops
// — the catalog survives restart — and closes the WAL (final sync included).
// The DB must not be used afterwards.
func (d *DB) Close() error {
	d.closing = true
	for _, name := range d.Views() {
		if err := d.DropView(name); err != nil {
			return err
		}
	}
	if d.log != nil {
		return d.log.Close()
	}
	return nil
}

// registerView installs a backfilled view under its name and publishes a
// fresh epoch carrying it.
func (d *DB) registerView(v registeredView) {
	d.mu.Lock()
	d.views[v.viewName()] = v
	d.order = append(d.order, v.viewName())
	d.mu.Unlock()
	d.cat = nil
	d.store.Attach(v.viewName(), v.queryRels(), v.observe)
	d.publish(time.Now())
}

// header returns the struct the next epoch is built in: one a last Release
// gave back, its slices emptied, or a new one.
func (d *DB) header() *Epoch {
	e := d.free.Take()
	if e == nil {
		e = &Epoch{home: &d.free}
	}
	return e
}

// publish assembles and swaps in the next cross-view Epoch, stamped at, from
// every registered view's latest snapshot and accounting. Called at the end
// of Open, Apply, and view DDL, on the maintenance goroutine — the only
// writer of the registry, so it reads it without mu. The name catalogues are
// shared and the epoch is built in a struct a released one gave back, so with
// every lease released a batch allocates nothing here (TestAllocGuardPublish).
// The epoch retains each view's current snapshot; it is swapped in and then
// opened (see ivm.Lease), and the one it replaces loses the publication
// pointer's reference.
func (d *DB) publish(at time.Time) {
	if d.cat == nil {
		c := &epochCatalog{names: append([]string(nil), d.order...), slot: make(map[string]int, len(d.order)),
			rels: d.store.Relations()}
		for i, name := range c.names {
			c.slot[name] = i
		}
		d.cat = c
	}
	e := d.header()
	e.Recycled = d.free.Stats()
	for _, name := range d.cat.names {
		v := d.views[name]
		st := v.stats()
		e.views = append(e.views, epochView{snap: v.latestSnapshot(), stats: st})
		e.Recycled.Reused += st.Arena.Headers.Reused
		e.Recycled.Allocated += st.Arena.Headers.Allocated
	}
	for _, rel := range d.cat.rels {
		e.bases = append(e.bases, d.store.Stats(rel))
	}
	d.seq++
	e.Seq, e.Applied, e.At, e.cat, e.Ingest = d.seq, d.applied, at, d.cat, d.ingest
	if d.log != nil {
		e.Checkpoint = d.log.LastCheckpoint()
		e.Ingest.FramesLeased, e.Ingest.FramesAllocated = d.log.FrameStats()
	}
	prev := d.cur.Swap(e)
	e.lease.Open()
	prev.Release()
}

// Epoch returns a lease on the latest published cross-view epoch: one
// consistent snapshot per registered view, all reflecting the same applied
// prefix of the update stream. Safe from any goroutine; read, then Release.
func (d *DB) Epoch() *Epoch {
	for {
		if e := d.cur.Load(); e.lease.TryRetain() {
			return e
		}
	}
}

// Epoch is one published cross-view state: an immutable set of per-view
// snapshots taken after the same applied batch (plus the DDL operations up
// to it). Within one DB, Seq is strictly monotonic.
//
// An Epoch is a lease on the ivm.ViewSnapshot of every view, under the same
// contract: the publication pointer holds one reference while it is current
// and every DB.Epoch call one more; nothing read through the epoch — a
// snapshot, an *Entry, an in-place ring's payload — may be used after Release,
// and neither may the epoch: the last Release gives the struct back and a
// later epoch is built in it, so not even Seq may be read afterwards. Release
// stays optional: a forgotten epoch stays readable while reachable, is
// collected, not recycled, costs a GC cycle and shows in
// ViewStats.Arena.BackstopReclaims and as Recycled.Allocated climbing.
type Epoch struct {
	// Seq counts published epochs (Apply and view DDL each publish one).
	Seq uint64
	// Applied is the number of update batches this epoch reflects.
	Applied uint64
	// At is the publication wall time.
	At time.Time
	// Checkpoint is the last checkpoint written before this epoch (zero: none
	// since Open, or no durability).
	Checkpoint wal.CheckpointStats
	// Ingest is the batch intake as of this epoch.
	Ingest IngestStats
	// Recycled counts the header structs all epochs so far were built in — the
	// DB's own and its views' ivm.ViewSnapshot and data.RelationSnapshot.
	Recycled data.Recycled

	// cat is shared with the neighbouring epochs (see DB.cat); views is this
	// epoch's own, indexed like cat.names, and bases its view of the shared
	// store, indexed like cat.rels.
	cat   *epochCatalog
	views []epochView
	bases []data.BaseStats
	lease ivm.Lease
	home  *data.Recycler[Epoch]
}

// epochCatalog is what consecutive epochs have in common: the view names in
// creation order, each name's index, and the DB's base relations. One pointer
// per epoch instead of three headers.
type epochCatalog struct {
	names []string
	slot  map[string]int
	rels  []string
}

// IngestStats is how batches reach the DB, carried on the epoch like the
// base-store counters: ArenaBytes is the size of the data.BatchArena the last
// applied batch was decoded into (0 when it came as heap tuples); FramesLeased
// and FramesAllocated count the WAL frames handed to live subscribers in a
// buffer from the log's free list and in a fresh one (wal.Log.FrameStats).
type IngestStats struct {
	ArenaBytes      int    `json:"arena_bytes"`
	FramesLeased    uint64 `json:"frames_leased"`
	FramesAllocated uint64 `json:"frames_allocated"`
}

// viewLease is the ring-erased *ivm.ViewSnapshot[P] an epoch retains.
type viewLease interface{ Release() }

// epochView is one view's share of an epoch.
type epochView struct {
	snap  viewLease
	stats ViewStats
}

// Release drops one reference to the epoch (nil-safe, any goroutine); the
// last one releases the view snapshots it retained and puts the struct,
// scribbled, where the next publish takes it.
func (e *Epoch) Release() {
	if e == nil || !e.lease.Drop() {
		return
	}
	for _, v := range e.views {
		v.snap.Release()
	}
	clear(e.views)
	e.views, e.bases, e.cat = e.views[:0], e.bases[:0], nil
	e.Seq, e.Applied = ^uint64(0), ^uint64(0)
	e.home.Put(e)
}

// Views returns the epoch's view names in creation order (a copy: epochs
// are immutable and shared across goroutines).
func (e *Epoch) Views() []string {
	out := make([]string, len(e.cat.names))
	copy(out, e.cat.names)
	return out
}

// Has reports whether the epoch carries the named view.
func (e *Epoch) Has(name string) bool {
	_, ok := e.cat.slot[name]
	return ok
}

// BaseStats returns the shared base store's storage as of this epoch — per
// relation, in registration order, from counters the store keeps anyway
// (data.BaseStore.Stats). Both slices are shared and read-only. Safe from any
// goroutine, unlike the store itself.
func (e *Epoch) BaseStats() (rels []string, stats []data.BaseStats) { return e.cat.rels, e.bases }

// Stats returns the named view's cumulative maintenance accounting as of
// this epoch (MemoryBytes excepted), and whether the epoch carries the view.
// Unlike DB.ViewStatsOf it is safe from any goroutine.
func (e *Epoch) Stats(name string) (ViewStats, bool) {
	i, ok := e.cat.slot[name]
	if !ok {
		return ViewStats{}, false
	}
	return e.views[i].stats, true
}
