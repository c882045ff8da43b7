package db

import (
	"fmt"
	"time"

	"fivm/internal/data"
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
	// Under wal.FsyncAlways an ApplyQueue group is one record and one sync.
	Fsync wal.FsyncPolicy
	// SegmentBytes caps a log segment before rotation (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery writes an automatic checkpoint after that many
	// applied batches, an ApplyQueue group counting as one (0 = manual
	// Checkpoint calls only).
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

// recoverFrom seeds the DB from what wal.Open found: adopt the checkpoint's
// base relations, re-create its SQL views (each backfills from the adopted
// bases), then replay the records after it as a follower applies shipped
// ones: ScanFramesAfter from the checkpoint's LSN, each frame decoded into one
// arena, applied by applyRecord without logging and rewound. A gap in the
// LSNs is an error. Runs inside Open (an in-memory follower's Bootstrap is a
// checkpoint alone), before the DB is returned.
func (d *DB) recoverFrom(rec *wal.Recovery) error {
	info := &RecoveryInfo{TornBytes: rec.Truncated}
	after := uint64(0)
	if ck := rec.Checkpoint; ck != nil {
		info.FromCheckpoint, info.CheckpointApplied = true, ck.Applied
		for _, t := range ck.Bases {
			if err := d.store.Restore(t.Rel, t.Schema, t.Len, t.All); err != nil {
				return fmt.Errorf("db: recover checkpoint: %w", err)
			}
		}
		d.applied, d.seq = ck.Applied, ck.Seq
		d.publish(time.Now()) // re-seed the epoch at the recovered applied count
		for _, def := range ck.Views {
			if _, err := createViewSQL(d, def.Name, def.SQL, viewOptionsOf(def), false); err != nil {
				return fmt.Errorf("db: recover view %q: %w", def.Name, err)
			}
		}
		after = ck.LSN
	}

	if d.log != nil {
		var arena data.BatchArena
		records, from := 0, d.applied
		last, gap, err := wal.ScanFramesAfter(d.log.FS(), d.log.Dir(), after, func(_ uint64, frame []byte) error {
			defer arena.Rewind()
			r, _, err := wal.DecodeFrameInto(frame, &arena)
			if err == nil {
				err = d.applyRecord(r, false)
			}
			records++
			return err
		})
		if gap {
			return fmt.Errorf("db: recover: the log skips from LSN %d", last)
		} else if err != nil {
			return fmt.Errorf("db: recover: replay LSN %d: %w", last+1, err)
		}
		info.ReplayedBatches = int(d.applied - from)
		info.ReplayedDDL = records - info.ReplayedBatches
	}
	if len(d.order) > 0 { // no typed view exists before Open returns
		info.Views = d.Views()
	}

	if info.FromCheckpoint || info.ReplayedBatches > 0 || info.ReplayedDDL > 0 || info.TornBytes > 0 {
		d.recovery = info
	}
	return nil
}

// applyRecord applies one logged record — a batch, a SQL view's creation, a
// view's drop — below the follower guard: recovery replays the local log
// through it and ApplyReplicated a primary's shipped records, and logIt (a
// durable follower re-logs) is the only difference. A re-created view
// backfills from the current base relations, so it equals an uninterrupted
// run's.
func (d *DB) applyRecord(rec wal.Record, logIt bool) error {
	switch {
	case rec.Create != nil:
		_, err := createViewSQL(d, rec.Create.Name, rec.Create.SQL, viewOptionsOf(*rec.Create), logIt)
		return err
	case rec.Drop != "":
		return d.dropView(rec.Drop, logIt)
	default:
		if rec.Applied != d.applied+1 {
			return fmt.Errorf("db: batch record applied=%d, expected %d", rec.Applied, d.applied+1)
		}
		return d.applyBase(rec.Batch, logIt)
	}
}

// viewOptionsOf and viewDefOf are the one mapping between a SQL view's
// options and its persisted catalog entry: what a ViewDef does not carry
// (Order) a SQL-created view leaves at its default.
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
