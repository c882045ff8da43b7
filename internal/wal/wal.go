package wal

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
)

// Segment files are named wal-%08d.seg (the number is the segment sequence,
// not an LSN) and start with a 16-byte header: 8-byte magic, version byte,
// 7 reserved zero bytes. Records follow back to back in the framing of
// record.go. A fresh segment is started on every Open and after every
// checkpoint, so only the last segment can legitimately have a torn tail.

const (
	segMagic   = "FIVMWAL1"
	segVersion = 1
	segHdrLen  = 16

	// maxRecordBytes bounds a single record frame; larger lengths are
	// treated as corruption rather than allocated.
	maxRecordBytes = 1 << 30
)

var (
	errTorn   = errors.New("wal: torn record")
	errBadCRC = errors.New("wal: record CRC mismatch")

	// ErrClosed is returned by appends after Close or after a prior append
	// failure poisoned the log (the on-disk tail is no longer trusted).
	ErrClosed = errors.New("wal: log closed")
)

// FsyncPolicy controls when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every appended record: an acknowledged batch
	// survives any crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per SyncInterval, amortizing the
	// sync cost; a crash can lose up to one interval of acknowledged
	// batches (but never tears one — recovery truncates to a record
	// boundary).
	FsyncInterval
	// FsyncNever leaves syncing to the OS; a crash may lose any batch not
	// yet flushed. Contents remain consistent — recovery still replays a
	// clean prefix.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync parses a policy name as accepted by the -fsync flag.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never", "":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configures a Log.
type Options struct {
	// Dir is the WAL directory (segments and checkpoints live flat in it).
	Dir string
	// FS is the filesystem to write through; nil means the real one (OSFS).
	FS VFS
	// Fsync is the sync policy for appended records.
	Fsync FsyncPolicy
	// SyncInterval is the minimum spacing between syncs under
	// FsyncInterval (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB). Rotation happens between records.
	SegmentBytes int64
	// now is injectable for interval-policy tests.
	now func() time.Time
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// Recovery is what Open found on disk: the latest valid checkpoint (nil if
// none) and the WAL records after it, in LSN order, ready to replay.
type Recovery struct {
	Checkpoint *Checkpoint
	// Records are the surviving log records with LSN greater than the
	// checkpoint's (all of them when Checkpoint is nil).
	Records []Record
	// Truncated reports how many torn tail bytes were discarded on open.
	Truncated int64
}

// Log is a segmented write-ahead log. Single-writer: the DB's maintenance
// goroutine appends; Open-time recovery happens before any appends.
type Log struct {
	opts    Options
	dir     string
	seg     File
	segSeq  uint64
	segSize int64
	lsn     uint64 // last assigned LSN
	frame   []byte // reused frame scratch (header + body copy)
	body    []byte // reused body-encoding scratch
	// ckptBuf is the reused checkpoint-streaming buffer (see ckptWriter) and
	// ckptFlush how much of it fills between writes: ckptFlushBytes, lowered
	// only by tests that tear a small checkpoint at every write boundary.
	ckptBuf   []byte
	ckptFlush int
	lastCkpt  CheckpointStats
	lastSync  time.Time
	failed    atomic.Value // the sticky append failure, an error stored once (fail)
	closed    bool

	// Live frame subscribers (stream.go). subMu alone guards them and the free
	// list of frame buffers: Subscribe, Close and Frame.Release may race with
	// the appender's notify. framesLeased and framesAllocated are the
	// appender's own counters (FrameStats).
	subMu      sync.Mutex
	subs       []*FrameSub
	subsClosed bool
	frameFree  []*frameLease

	framesLeased, framesAllocated uint64
}

// Open opens (creating if needed) the WAL in opts.Dir, scans all segments —
// validating CRCs, truncating a torn tail in the final segment only — loads
// the latest valid checkpoint, and returns the log (positioned on a fresh
// segment) plus everything recovery needs to replay.
func Open(opts Options) (*Log, *Recovery, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: empty directory")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil && !isNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read dir: %w", err)
	}

	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	// ReadDir returns sorted names and segment numbers are zero-padded, so
	// segs is already in sequence order.

	rec := &Recovery{}
	ck, err := loadLatestCheckpoint(opts.FS, opts.Dir, names)
	if err != nil {
		return nil, nil, err
	}
	rec.Checkpoint = ck
	afterLSN := uint64(0)
	if ck != nil {
		afterLSN = ck.LSN
	}

	maxSeq := uint64(0)
	lastLSN := afterLSN
	for i, name := range segs {
		seq, ok := parseSegName(name)
		if !ok {
			return nil, nil, fmt.Errorf("wal: malformed segment name %q", name)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		final := i == len(segs)-1
		recs, truncated, err := scanSegment(opts.FS, path.Join(opts.Dir, name), final)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		rec.Truncated += truncated
		for _, r := range recs {
			if r.LSN <= afterLSN {
				continue // covered by the checkpoint
			}
			if r.LSN <= lastLSN {
				return nil, nil, fmt.Errorf("wal: segment %s: LSN %d out of order (last %d)", name, r.LSN, lastLSN)
			}
			lastLSN = r.LSN
			rec.Records = append(rec.Records, r)
		}
	}

	l := &Log{
		opts:   opts,
		dir:    opts.Dir,
		segSeq: maxSeq,
		lsn:    lastLSN,
		frame:  make([]byte, 0, 64<<10),
		body:   make([]byte, 0, 64<<10),

		ckptFlush: ckptFlushBytes,
	}
	if ck != nil && ck.LSN > l.lsn {
		l.lsn = ck.LSN
	}
	// Fresh segment per open: no appending to a possibly-torn tail.
	if err := l.rotate(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

func segFileName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// scanSegment reads and validates one segment. In the final segment a torn
// tail (incomplete frame, or a CRC mismatch from a half-written record) is
// truncated away; anywhere else it is corruption and an error.
func scanSegment(fs VFS, name string, final bool) ([]Record, int64, error) {
	b, err := fs.ReadFile(name)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < segHdrLen {
		if final {
			// A segment header torn mid-write: nothing recoverable here.
			return nil, int64(len(b)), nil
		}
		return nil, 0, fmt.Errorf("truncated header (%d bytes)", len(b))
	}
	if string(b[:8]) != segMagic {
		return nil, 0, fmt.Errorf("bad magic %q", b[:8])
	}
	var recs []Record
	at := segHdrLen
	for at < len(b) {
		r, n, err := decodeRecord(b[at:], nil)
		if err != nil {
			if final && (errors.Is(err, errTorn) || errors.Is(err, errBadCRC)) {
				// Torn tail: discard it on disk so the file is clean.
				torn := int64(len(b) - at)
				if terr := fs.Truncate(name, int64(at)); terr != nil {
					return nil, 0, fmt.Errorf("truncate torn tail: %w", terr)
				}
				return recs, torn, nil
			}
			return nil, 0, fmt.Errorf("record at offset %d: %w", at, err)
		}
		recs = append(recs, r)
		at += n
	}
	return recs, 0, nil
}

// rotate closes the current segment (if any) and starts a fresh one.
func (l *Log) rotate() error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sync on rotate: %w", err)
		}
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close on rotate: %w", err)
		}
		l.seg = nil
	}
	l.segSeq++
	f, err := l.opts.FS.Create(path.Join(l.dir, segFileName(l.segSeq)))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHdrLen]byte
	copy(hdr[:8], segMagic)
	hdr[8] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.seg = f
	l.segSize = segHdrLen
	return nil
}

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 { return l.lsn }

// Dir returns the WAL directory.
func (l *Log) Dir() string { return l.dir }

// append frames and writes one record body, applying the fsync policy. On
// any write error the log is poisoned: the tail may hold torn bytes, so
// further appends fail with ErrClosed wrapping the original failure.
func (l *Log) append(body []byte) error {
	l.frame = appendFrame(l.frame[:0], body)
	if _, err := l.seg.Write(l.frame); err != nil {
		return fmt.Errorf("wal: append: %w", l.fail(err))
	}
	l.segSize += int64(len(l.frame))
	switch l.opts.Fsync {
	case FsyncAlways:
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", l.fail(err))
		}
	case FsyncInterval:
		if now := l.opts.now(); now.Sub(l.lastSync) >= l.opts.SyncInterval {
			if err := l.seg.Sync(); err != nil {
				return fmt.Errorf("wal: sync: %w", l.fail(err))
			}
			l.lastSync = now
		}
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// fail poisons the log with err and returns it: only the first failure gets
// here, as every append, Sync and checkpoint asks usable first.
func (l *Log) fail(err error) error { l.failed.Store(err); return err }

// Failure returns the error that poisoned the log, or nil. Any goroutine may ask.
func (l *Log) Failure() error { err, _ := l.failed.Load().(error); return err }

// usable reports whether the log accepts appends.
func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.Failure(); err != nil {
		return fmt.Errorf("%w (after earlier failure: %v)", ErrClosed, err)
	}
	return nil
}

// AppendBatch logs one applied batch. The record is durable per the fsync
// policy when this returns nil; on error nothing was acknowledged and the
// log refuses further appends.
func (l *Log) AppendBatch(applied uint64, batch []data.BaseUpdate) error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := checkArity(batch); err != nil {
		return err
	}
	lsn := l.lsn + 1
	l.body = encodeBatchBody(l.body[:0], lsn, applied, batch)
	if err := l.append(l.body); err != nil {
		return err
	}
	l.lsn = lsn
	l.notify(lsn)
	return nil
}

// AppendCreateView logs a view-catalog addition.
func (l *Log) AppendCreateView(def ViewDef) error {
	if err := l.usable(); err != nil {
		return err
	}
	lsn := l.lsn + 1
	l.body = encodeCreateViewBody(l.body[:0], lsn, def)
	if err := l.append(l.body); err != nil {
		return err
	}
	l.lsn = lsn
	l.notify(lsn)
	return nil
}

// AppendDropView logs a view-catalog removal.
func (l *Log) AppendDropView(name string) error {
	if err := l.usable(); err != nil {
		return err
	}
	lsn := l.lsn + 1
	l.body = encodeDropViewBody(l.body[:0], lsn, name)
	if err := l.append(l.body); err != nil {
		return err
	}
	l.lsn = lsn
	l.notify(lsn)
	return nil
}

// Sync forces buffered records to stable storage regardless of policy.
func (l *Log) Sync() error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", l.fail(err))
	}
	l.lastSync = l.opts.now()
	return nil
}

// Close syncs (skipped once poisoned) and closes the current segment. The
// log cannot be used afterwards.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	l.closeSubs()
	if l.seg == nil {
		return nil
	}
	var err error
	if l.Failure() == nil {
		err = l.seg.Sync()
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	l.seg = nil
	return err
}
