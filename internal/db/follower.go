package db

import (
	"fmt"

	"fivm/internal/wal"
)

// Follower mode: a DB whose only write path is ApplyReplicated, fed with
// records shipped from a primary's WAL (internal/replica is the transport).
// The records drive the same applyBase / CreateViewSQL / DropView machinery
// an uninterrupted primary runs, so the follower publishes the same epoch
// sequence — its snapshots are byte-identical to the primary's at the same
// applied count — and serves them through the ordinary Epoch / serve.Reader
// read path.

// ErrFollower is wrapped by every write rejected on a follower.
var ErrFollower = fmt.Errorf("db: follower is read-only (writes arrive via replication)")

// writable rejects direct writes on a follower. Replication and recovery
// temporarily lift the guard: they are the paths writes legitimately arrive
// through.
func (d *DB) writable() error {
	if d.opts.Follower && !d.replicating && !d.recovering {
		return ErrFollower
	}
	return nil
}

// Follower reports whether the DB is in follower mode.
func (d *DB) Follower() bool { return d.opts.Follower }

// ReplLSN returns the last replicated LSN (0 before any record). Safe from
// any goroutine; the replication handshake sends it to resume the stream.
func (d *DB) ReplLSN() uint64 { return d.replLSN.Load() }

// ApplyReplicated applies one WAL record shipped from the primary, on the
// follower's maintenance goroutine. Records must arrive in LSN order: an
// already-covered LSN is skipped (the reconnect handshake may replay a
// suffix), a gap is an error — the caller reconnects and the handshake
// falls back to checkpoint transfer.
//
// A durable follower re-logs the record to its own WAL before in-memory
// state advances, under the same LSN the primary assigned, so a restarted
// follower recovers locally and resumes the stream where it left off.
func (d *DB) ApplyReplicated(rec wal.Record) error {
	if !d.opts.Follower {
		return fmt.Errorf("db: ApplyReplicated on a non-follower DB")
	}
	last := d.replLSN.Load()
	if rec.LSN <= last {
		return nil // duplicate delivery after reconnect
	}
	if rec.LSN != last+1 {
		return fmt.Errorf("db: replication gap: record LSN %d after %d", rec.LSN, last)
	}
	d.replicating = true
	defer func() { d.replicating = false }()
	switch {
	case rec.Create != nil:
		if _, err := CreateViewSQL(d, rec.Create.Name, rec.Create.SQL, viewOptionsOf(*rec.Create)); err != nil {
			return err
		}
	case rec.Drop != "":
		if err := d.DropView(rec.Drop); err != nil {
			return err
		}
	default:
		if rec.Applied != d.applied+1 {
			return fmt.Errorf("db: replication: batch record applied=%d, expected %d", rec.Applied, d.applied+1)
		}
		if err := d.applyBase(rec.Batch, true); err != nil {
			return err
		}
	}
	d.replLSN.Store(rec.LSN)
	return nil
}

// Sync forces any WAL tail buffered under fsync=never to stable storage (a
// no-op without durability). Graceful shutdown calls it before
// Close so an acknowledged batch survives the exit.
func (d *DB) Sync() error {
	if d.log == nil {
		return nil
	}
	return d.log.Sync()
}

// WAL exposes the underlying log for the replication sender (nil without
// durability). The log stays owned by the DB: callers only subscribe to
// frames and read segments back, never append.
func (d *DB) WAL() *wal.Log { return d.log }
