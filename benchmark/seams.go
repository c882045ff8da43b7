package main

import (
	"net"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/wal"
)

// The three public seams the ledger counts through: a wal.VFS, a
// data.LiftFunc and a net.Conn, each wrapping the real one.

// countingFS counts and times what the WAL writes. The primary's replication
// sender reads segments back through the same VFS from its own goroutines,
// hence the mutex on the slow paths and atomics on the write path.
type countingFS struct {
	inner wal.VFS

	writes, syncs   atomic.Int64
	bytes           atomic.Int64
	writeNs, syncNs atomic.Int64

	mu          sync.Mutex
	segments    int
	checkpoints []checkpointEvent
	open        map[string]*checkpointEvent // checkpoint temp files being written
}

// checkpointEvent is one checkpoint as seen at the VFS: from the creation of
// its temporary file to the rename that publishes it.
type checkpointEvent struct {
	start, end time.Time
	bytes      int64
}

func newCountingFS(inner wal.VFS) *countingFS {
	return &countingFS{inner: inner, open: map[string]*checkpointEvent{}}
}

func (c *countingFS) MkdirAll(dir string) error              { return c.inner.MkdirAll(dir) }
func (c *countingFS) ReadDir(dir string) ([]string, error)   { return c.inner.ReadDir(dir) }
func (c *countingFS) ReadFile(name string) ([]byte, error)   { return c.inner.ReadFile(name) }
func (c *countingFS) Remove(name string) error               { return c.inner.Remove(name) }
func (c *countingFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func isCheckpointFile(name string) bool {
	return strings.HasPrefix(path.Base(name), "ckpt")
}

func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	cf := &countingFile{fs: c, inner: f}
	c.mu.Lock()
	if isCheckpointFile(name) {
		ev := &checkpointEvent{start: time.Now()}
		c.open[name] = ev
		cf.ckpt = ev
	} else {
		c.segments++
	}
	c.mu.Unlock()
	return cf, nil
}

func (c *countingFS) Rename(oldname, newname string) error {
	err := c.inner.Rename(oldname, newname)
	c.mu.Lock()
	if ev := c.open[oldname]; ev != nil {
		delete(c.open, oldname)
		ev.end = time.Now()
		c.checkpoints = append(c.checkpoints, *ev)
	}
	c.mu.Unlock()
	return err
}

type countingFile struct {
	fs    *countingFS
	inner wal.File
	ckpt  *checkpointEvent
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Write(p)
	f.fs.writeNs.Add(int64(time.Since(start)))
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	if f.ckpt != nil {
		f.ckpt.bytes += int64(n)
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	f.fs.syncNs.Add(int64(time.Since(start)))
	f.fs.syncs.Add(1)
	return err
}

func (f *countingFile) Close() error { return f.inner.Close() }

// fsCounts is a point-in-time copy of a countingFS's counters.
type fsCounts struct {
	writes, syncs, bytes, writeNs, syncNs int64
	segments, checkpoints                 int
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{
		writes: c.writes.Load(), syncs: c.syncs.Load(), bytes: c.bytes.Load(),
		writeNs: c.writeNs.Load(), syncNs: c.syncNs.Load(),
		segments: c.segments, checkpoints: len(c.checkpoints),
	}
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{
		writes: a.writes - b.writes, syncs: a.syncs - b.syncs, bytes: a.bytes - b.bytes,
		writeNs: a.writeNs - b.writeNs, syncNs: a.syncNs - b.syncNs,
		segments: a.segments - b.segments, checkpoints: a.checkpoints - b.checkpoints,
	}
}

// checkpointsSince returns the checkpoints published after t.
func (c *countingFS) checkpointsSince(t time.Time) []checkpointEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []checkpointEvent
	for _, ev := range c.checkpoints {
		if ev.start.After(t) {
			out = append(out, ev)
		}
	}
	return out
}

// countingLift counts calls of a typed view's lifting function. The engine
// calls it from the maintenance goroutine only, so a plain counter does.
func countingLift[P any](lift data.LiftFunc[P], calls *int64) data.LiftFunc[P] {
	return func(v string, x data.Value) P {
		*calls++
		return lift(v, x)
	}
}

// countingConn counts the bytes a follower receives from its primary.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}
