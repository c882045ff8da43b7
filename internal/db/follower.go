package db

import (
	"fmt"

	"fivm/internal/wal"
)

// Follower mode: a DB whose only write path is ApplyReplicated, fed with
// records shipped from a primary's WAL (internal/replica is the transport).
// The records go through applyRecord, the path recovery replays the local
// log's tail through, and on into the same applyBase / createViewSQL /
// dropView machinery an uninterrupted primary runs, so the follower
// publishes the same epoch sequence — its snapshots are byte-identical to the
// primary's at the same applied count — and serves them through the ordinary
// Epoch / serve.Reader read path.

// ErrFollower is wrapped by every write rejected on a follower.
var ErrFollower = fmt.Errorf("db: follower is read-only (writes arrive via replication)")

// writable rejects direct writes on a follower. Replication and recovery
// apply records through applyRecord, below the guard.
func (d *DB) writable() error {
	if d.opts.Follower {
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
// The record goes through applyRecord, as recovery's do, except that a
// durable follower re-logs it (a drop of a typed view an older primary logged
// included) under the primary's LSN before state advances, so a restarted
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
	if err := d.applyRecord(rec, true); err != nil {
		return err
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
