package replica

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/wal"
)

// FollowerConfig configures a replication follower.
type FollowerConfig struct {
	// Primary is the primary's replication listener address.
	Primary string
	// Catalog is the base-relation catalog; it must match the primary's
	// (the shipped records replay against it).
	Catalog db.Catalog
	// Durability, when set, makes the follower re-log shipped records to
	// its own WAL under the primary's LSNs: a restarted follower recovers
	// locally and resumes the stream where it stopped. nil keeps the
	// follower in memory (restart = full re-sync via checkpoint transfer).
	Durability *db.DurabilityOptions
	// Dial overrides the dialer (tests); nil uses net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// OnApply, when set, is called on the stream goroutine after every
	// replicated record that was applied, with the epoch the follower is at
	// then: an every-epoch source for lag measurement (Applied and At of one
	// epoch against the primary's), where polling DB().Epoch() sees only some.
	// The epoch is the follower's lease; it is released when OnApply returns.
	OnApply func(e *db.Epoch)
}

// redialWait spaces a follower's reconnect attempts.
const redialWait = 250 * time.Millisecond

// Follower is a read replica: a follower-mode db.DB kept in sync by
// streaming the primary's WAL. Reads go through the ordinary epoch read
// path on DB(); the handle is swapped atomically when a checkpoint
// transfer rebuilds state, so hold the result of DB() only per-request.
type Follower struct {
	cfg FollowerConfig
	cur atomic.Pointer[db.DB]
	// redialWait spaces reconnect attempts: the constant, which a test
	// shortens.
	redialWait time.Duration

	mu     sync.Mutex
	conn   net.Conn
	closed atomic.Bool

	// arena holds the shipped batch being applied; Run's goroutine only.
	arena data.BatchArena
}

// NewFollower opens the follower's DB (recovering a durable one from its
// local WAL) without contacting the primary yet; Run starts the stream.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: FollowerConfig.Primary is required")
	}
	d, err := db.Open(cfg.Catalog, db.Options{Follower: true, Durability: cfg.Durability})
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, redialWait: redialWait}
	f.cur.Store(d)
	return f, nil
}

// DB returns the current follower DB for reading. After a checkpoint
// transfer it is a different instance; re-call per request (netserve's
// Config.DB takes exactly this function).
func (f *Follower) DB() *db.DB { return f.cur.Load() }

// Run streams from the primary until ctx is cancelled or Close is called,
// redialing after disconnects. It returns nil on orderly shutdown.
func (f *Follower) Run(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { f.dropConn() })
	defer stop()
	for {
		if f.closed.Load() || ctx.Err() != nil {
			return nil
		}
		f.stream(ctx)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(f.redialWait):
		}
	}
}

// Close severs the connection and closes the follower DB. Run (if active)
// returns.
func (f *Follower) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.dropConn()
	return f.cur.Load().Close()
}

func (f *Follower) dropConn() {
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
}

// setConn registers the live connection for Close/ctx interruption; false
// means the follower is already shutting down.
func (f *Follower) setConn(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return false
	}
	f.conn = c
	return true
}

// stream runs one connection: handshake at the current LSN, optional
// checkpoint bootstrap, then apply frames until the connection breaks.
func (f *Follower) stream(ctx context.Context) {
	dial := f.cfg.Dial
	if dial == nil {
		var d net.Dialer
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, f.cfg.Primary)
	if err != nil {
		return
	}
	defer conn.Close()
	// A cancel before setConn found no connection for Run's AfterFunc to
	// drop, so it is checked once the connection is registered.
	if !f.setConn(conn) || ctx.Err() != nil {
		return
	}
	defer f.setConn(nil)

	d := f.cur.Load()
	if err := writeHandshake(conn, d.ReplLSN()); err != nil {
		return
	}
	var mode [1]byte
	if _, err := io.ReadFull(conn, mode[:]); err != nil {
		return
	}
	switch mode[0] {
	case modeCheckpoint:
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		raw, err := readBody(conn, nil, int(binary.LittleEndian.Uint32(lenBuf[:])))
		if err != nil {
			return
		}
		if d, err = f.rebootstrap(raw); err != nil {
			return
		}
	case modeFrames:
	default:
		return
	}

	var frame []byte
	for {
		if frame, err = readFrame(conn, frame); err != nil {
			return
		}
		if err := f.applyFrame(d, frame); err != nil {
			// A gap means this stream cannot continue; reconnect and let
			// the handshake decide (typically checkpoint transfer).
			return
		}
	}
}

// applyFrame applies one shipped frame: the record is decoded into the
// follower's arena — a batch's updates and tuples live there, not on the heap
// — and dies with it, rewound once the record is applied, its epoch published
// and OnApply has seen it.
func (f *Follower) applyFrame(d *db.DB, frame []byte) error {
	defer f.arena.Rewind()
	rec, _, err := wal.DecodeFrameInto(frame, &f.arena)
	if err != nil {
		return err
	}
	if err := d.ApplyReplicated(rec); err != nil {
		return err
	}
	if f.cfg.OnApply != nil {
		e := d.Epoch()
		f.cfg.OnApply(e)
		e.Release()
	}
	return nil
}

// rebootstrap replaces the follower DB with one seeded from a shipped
// checkpoint: the local state (behind the primary's pruned WAL) is
// discarded, exactly like a fresh follower starting from that checkpoint.
func (f *Follower) rebootstrap(raw []byte) (*db.DB, error) {
	ck, err := wal.DecodeCheckpointBytes(raw)
	if err != nil {
		return nil, err
	}
	old := f.cur.Load()
	if err := old.Close(); err != nil {
		return nil, err
	}
	var d *db.DB
	if dur := f.cfg.Durability; dur != nil {
		// Install the shipped checkpoint as the local WAL's only content,
		// then reopen: recovery seeds from it and appends resume at its
		// LSN, keeping the local log in LSN parity with the primary.
		fs := dur.FS
		if fs == nil {
			fs = wal.OSFS{}
		}
		if err := wipeWALDir(fs, dur.Dir); err != nil {
			return nil, err
		}
		file, err := fs.Create(path.Join(dur.Dir, wal.CheckpointFileName(ck.LSN)))
		if err != nil {
			return nil, err
		}
		if _, err := file.Write(raw); err != nil {
			file.Close()
			return nil, err
		}
		if err := file.Sync(); err != nil {
			file.Close()
			return nil, err
		}
		if err := file.Close(); err != nil {
			return nil, err
		}
		d, err = db.Open(f.cfg.Catalog, db.Options{Follower: true, Durability: dur})
		if err != nil {
			return nil, err
		}
	} else {
		if d, err = db.Open(f.cfg.Catalog, db.Options{Follower: true, Bootstrap: ck}); err != nil {
			return nil, err
		}
	}
	f.cur.Store(d)
	return d, nil
}

// wipeWALDir removes every WAL segment and checkpoint in dir.
func wipeWALDir(fs wal.VFS, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil // nothing to wipe (Open will create the directory)
	}
	for _, n := range names {
		isSeg := strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg")
		isCk := strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck")
		if !isSeg && !isCk {
			continue
		}
		if err := fs.Remove(path.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}
