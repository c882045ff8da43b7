package db

import (
	"fmt"
	"time"

	"fivm/internal/wal"
)

// DurabilityOptions enables the write-ahead log: every applied batch is
// logged (before any in-memory state advances) and SQL-defined views are
// persisted in the catalog, so db.Open recovers the exact state — latest
// checkpoint, re-created views, replayed tail. Zero value = disabled (leave
// Options.Durability nil for a purely in-memory DB).
type DurabilityOptions struct {
	// Dir is the WAL directory (created if missing).
	Dir string
	// FS overrides the filesystem (fault injection, in-memory tests); nil
	// means the real one.
	FS wal.VFS
	// Fsync is the sync policy for logged batches (see wal.FsyncPolicy).
	Fsync wal.FsyncPolicy
	// SyncInterval spaces syncs under wal.FsyncInterval (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes caps a log segment before rotation (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery writes an automatic checkpoint after that many
	// applied batches (0 = manual Checkpoint calls only).
	CheckpointEvery uint64
}

// RecoveryInfo reports what db.Open recovered from the WAL directory.
type RecoveryInfo struct {
	// FromCheckpoint is true when a checkpoint seeded the base relations
	// (otherwise everything came from batch replay).
	FromCheckpoint bool
	// CheckpointApplied is the applied-batch counter the checkpoint covered.
	CheckpointApplied uint64
	// ReplayedBatches and ReplayedDDL count the WAL tail records replayed
	// after the checkpoint.
	ReplayedBatches int
	ReplayedDDL     int
	// TornBytes is the size of the torn WAL tail discarded on open (an
	// in-flight record cut short by the crash; never an acknowledged one
	// under fsync=always).
	TornBytes int64
	// Views are the SQL view names re-created from the persisted catalog,
	// in re-creation order. Views registered through the typed CreateView
	// API are not persisted (their lift functions cannot be serialized) and
	// must be re-created by the caller; backfill equivalence makes their
	// contents identical to an uninterrupted run.
	Views []string
}

// Recovery returns what Open recovered, or nil when durability is disabled
// or the WAL directory was empty.
func (d *DB) Recovery() *RecoveryInfo { return d.recovery }

// WALStats reports the log's position for introspection.
func (d *DB) WALStats() (lsn uint64, enabled bool) {
	if d.log == nil {
		return 0, false
	}
	return d.log.LSN(), true
}

// Checkpoint serializes the current base relations and the persisted SQL
// view catalog into a checkpoint file, then prunes the WAL records it
// covers. The rows are streamed from the live relations in encoded-key order
// (data.BaseStore.Rows): no row is copied or materialized for the file, and
// the sort runs in each relation's own entry table, which is seated again
// when its rows are written — nothing is allocated per row. So the DB must
// be at a batch boundary (maintenance goroutine). Recovery after a checkpoint
// restores its rows straight from the file bytes and replays only the tail.
func (d *DB) Checkpoint() error {
	if d.log == nil {
		return fmt.Errorf("db: durability not enabled")
	}
	rels := d.store.Relations()
	ck := &wal.Checkpoint{
		Applied: d.applied,
		Seq:     d.seq,
		Views:   d.sqlViewDefs(),
		Bases:   make([]wal.BaseTable, len(rels)),
	}
	for i, rel := range rels {
		base := d.store.Base(rel)
		ck.Bases[i] = wal.BaseTable{Rel: rel, Schema: base.Schema(), Len: base.Len(), All: d.store.Rows(rel)}
	}
	if err := d.log.WriteCheckpoint(ck); err != nil {
		return fmt.Errorf("db: checkpoint: %w", err)
	}
	d.sinceCkpt = 0
	return nil
}

// sqlViewDefs returns the persisted catalog: every live SQL-defined view in
// creation order.
func (d *DB) sqlViewDefs() []wal.ViewDef {
	d.mu.RLock()
	defer d.mu.RUnlock()
	defs := make([]wal.ViewDef, 0, len(d.sqlViews))
	for _, name := range d.order {
		if def, ok := d.sqlViews[name]; ok {
			defs = append(defs, def)
		}
	}
	return defs
}

// recover seeds the DB from what wal.Open found: adopt the checkpoint's
// base relations, re-create its SQL views (each backfills from the adopted
// bases), then replay the WAL tail batch-by-batch, interleaving the DDL
// records at their logged positions. Runs inside Open, before the DB is
// returned.
func (d *DB) recoverFrom(rec *wal.Recovery) error {
	info := &RecoveryInfo{TornBytes: rec.Truncated}
	d.recovering = true
	defer func() { d.recovering = false }()

	if ck := rec.Checkpoint; ck != nil {
		info.FromCheckpoint = true
		info.CheckpointApplied = ck.Applied
		for _, t := range ck.Bases {
			if err := d.store.Restore(t.Rel, t.Schema, t.Len, t.All); err != nil {
				return fmt.Errorf("db: recover checkpoint: %w", err)
			}
		}
		d.applied = ck.Applied
		d.seq = ck.Seq
		d.publish(time.Now()) // re-seed the epoch at the recovered applied count
		for _, def := range ck.Views {
			if err := d.recoverView(def); err != nil {
				return fmt.Errorf("db: recover view %q: %w", def.Name, err)
			}
			info.Views = append(info.Views, def.Name)
		}
	}

	for _, r := range rec.Records {
		switch {
		case r.Create != nil:
			if err := d.recoverView(*r.Create); err != nil {
				return fmt.Errorf("db: recover view %q: %w", r.Create.Name, err)
			}
			info.Views = append(info.Views, r.Create.Name)
			info.ReplayedDDL++
		case r.Drop != "":
			// A drop may name a typed view that was never persisted; those
			// are already absent.
			if d.HasView(r.Drop) {
				if err := d.DropView(r.Drop); err != nil {
					return fmt.Errorf("db: recover drop %q: %w", r.Drop, err)
				}
			}
			for i, n := range info.Views {
				if n == r.Drop {
					info.Views = append(info.Views[:i], info.Views[i+1:]...)
					break
				}
			}
			info.ReplayedDDL++
		default:
			if r.Applied != d.applied+1 {
				return fmt.Errorf("db: recover: batch record applied=%d, expected %d", r.Applied, d.applied+1)
			}
			if err := d.applyBase(r.Batch, false); err != nil {
				return fmt.Errorf("db: recover: replay batch %d: %w", r.Applied, err)
			}
			info.ReplayedBatches++
		}
	}

	if info.FromCheckpoint || info.ReplayedBatches > 0 || info.ReplayedDDL > 0 || info.TornBytes > 0 {
		d.recovery = info
	}
	return nil
}

// recoverView re-creates one persisted SQL view. CreateViewSQL re-parses the
// stored statement against the live catalog and backfills from the current
// base relations — the engine reading the base store's multiplicities in
// place, as a mid-stream CreateView does — so the recovered contents equal an
// uninterrupted run's.
func (d *DB) recoverView(def wal.ViewDef) error {
	_, err := CreateViewSQL(d, def.Name, def.SQL, viewOptionsOf(def))
	return err
}

// viewOptionsOf and viewDefOf are the one mapping between a SQL view's
// options and its persisted catalog entry: what a ViewDef does not carry
// (Order, Updatable) a SQL-created view leaves at its default.
func viewOptionsOf(def wal.ViewDef) ViewOptions {
	return ViewOptions{
		ComposeChains:   def.ComposeChains,
		CostMaterialize: def.CostMaterialize,
	}
}

func viewDefOf(name, sql string, opts ViewOptions) wal.ViewDef {
	return wal.ViewDef{
		Name:            name,
		SQL:             sql,
		ComposeChains:   opts.ComposeChains,
		CostMaterialize: opts.CostMaterialize,
	}
}
