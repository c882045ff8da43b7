package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
)

// maxRecordBytes bounds a record's body: append refuses a longer one, and
// readers take a longer length for corruption rather than allocate it. A
// variable only so that tests can lower it.
var maxRecordBytes = 1 << 30

var (
	errTorn   = errors.New("wal: torn record")
	errBadCRC = errors.New("wal: record CRC mismatch")
	errGap    = errors.New("wal: LSN gap")

	// ErrClosed is returned by appends after Close or after a prior append
	// failure poisoned the log (the on-disk tail is no longer trusted).
	ErrClosed = errors.New("wal: log closed")
)

// FsyncPolicy controls when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every appended record: an acknowledged batch
	// survives any crash. The DB's apply queue commits the batches queued
	// together as one record, so concurrent writers share a sync.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves syncing to the OS; a crash may lose any batch not
	// yet flushed. Contents remain consistent — recovery still replays a
	// clean prefix.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
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
	case "never", "":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
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
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB). Rotation happens between records.
	SegmentBytes int64
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Recovery is what Open found on disk: the latest valid checkpoint (nil if
// none) and the size of the torn tail it cut off. The records after the
// checkpoint stay in the segments, which Open has checked: the DB replays
// them frame by frame the way a follower applies shipped ones —
// ScanFramesAfter from the checkpoint's LSN, each frame decoded by
// DecodeFrameInto into one arena that is rewound once the record is applied —
// so no more of the tail is held at once than one segment's bytes.
type Recovery struct {
	Checkpoint *Checkpoint
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

// Open opens (creating if needed) the WAL in opts.Dir, finds the latest
// valid checkpoint (LatestCheckpointBytes) and walks every segment
// (walkSegment): it refuses a torn or corrupt frame anywhere but at the end
// of the final segment, a segment with a bad header, and an LSN after the
// checkpoint's that does not exceed the one before it; a torn tail of the
// final segment is cut off on disk and counted in Recovery.Truncated. The
// log is returned positioned on a fresh segment, with what recovery needs to
// replay the records after the checkpoint from disk.
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
	_, ck, err := LatestCheckpointBytes(opts.FS, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Checkpoint: ck}
	afterLSN := uint64(0)
	if ck != nil {
		afterLSN = ck.LSN
	}

	maxSeq, lastLSN := uint64(0), afterLSN
	segs := segments(names)
	for i, name := range segs {
		seq, ok := parseSegName(name)
		if !ok {
			return nil, nil, fmt.Errorf("wal: malformed segment name %q", name)
		}
		maxSeq = max(maxSeq, seq)
		file := path.Join(opts.Dir, name)
		b, err := opts.FS.ReadFile(file)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		end, err := walkSegment(b, func(lsn uint64, _ []byte) error {
			if lsn <= afterLSN {
				return nil // covered by the checkpoint
			}
			if lsn <= lastLSN {
				return fmt.Errorf("wal: LSN %d out of order (last %d)", lsn, lastLSN)
			}
			lastLSN = lsn
			return nil
		})
		if err == nil {
			continue
		}
		if i < len(segs)-1 || !(errors.Is(err, errTorn) || errors.Is(err, errBadCRC)) {
			return nil, nil, fmt.Errorf("wal: segment %s at offset %d: %w", name, end, err)
		}
		// Torn tail: discard it on disk so the file is clean. A segment
		// whose header never made it whole holds no record and goes.
		rec.Truncated = int64(len(b) - end)
		if end == 0 {
			err = opts.FS.Remove(file)
		} else {
			err = opts.FS.Truncate(file, int64(end))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
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

// segments picks the segment files out of a directory listing, in sequence
// order (their numbers are zero-padded).
func segments(names []string) []string {
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	return segs
}

// walkSegment is the one reader of a segment file's bytes: Open validates
// and truncates with it, ScanFramesAfter ships with it and RecordBoundaries
// finds record ends with it. It checks the header, then each frame's length
// and CRC (checkFrame), and calls fn with every whole frame and its LSN in
// file order. It returns the offset at which the frames it passed end and
// why it stopped short of len(seg): errTorn or errBadCRC for a frame cut
// short or failing its checksum (a torn tail at the end of the segment being
// written, corruption anywhere else), another error for a frame no writer
// produces, or fn's error. A short header is errTorn and a wrong magic an
// error, both at offset 0.
func walkSegment(seg []byte, fn func(lsn uint64, frame []byte) error) (int, error) {
	if len(seg) < segHdrLen {
		return 0, errTorn
	}
	if string(seg[:8]) != segMagic {
		return 0, fmt.Errorf("bad magic %q", seg[:8])
	}
	at := segHdrLen
	for at < len(seg) {
		body, n, err := checkFrame(seg[at:])
		if err != nil {
			return at, err
		}
		lsn, vn := binary.Uvarint(body[1:])
		if vn <= 0 {
			return at, fmt.Errorf("wal: truncated record LSN")
		}
		if err := fn(lsn, seg[at:at+n]); err != nil {
			return at, err
		}
		at += n
	}
	return at, nil
}

// RecordBoundaries returns the file offset at which each complete record of
// a segment ends, in order. Crash tests use it to aim byte-budget faults at
// exact record boundaries. Scanning stops at the first torn or corrupt
// frame.
func RecordBoundaries(seg []byte) []int64 {
	var bounds []int64
	at := int64(segHdrLen)
	walkSegment(seg, func(_ uint64, frame []byte) error {
		at += int64(len(frame))
		bounds = append(bounds, at)
		return nil
	})
	return bounds
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

// append frames and writes one record body, applying the fsync policy. A
// body over maxRecordBytes, which no reader would accept, is refused before
// anything is written and leaves the log usable. On any write error the log
// is poisoned: the tail may hold torn bytes, so further appends fail with
// ErrClosed wrapping the original failure.
func (l *Log) append(body []byte) error {
	if len(body) > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes is over the %d-byte bound", len(body), maxRecordBytes)
	}
	l.frame = appendFrame(l.frame[:0], body)
	if _, err := l.seg.Write(l.frame); err != nil {
		return fmt.Errorf("wal: append: %w", l.fail(err))
	}
	l.segSize += int64(len(l.frame))
	if l.opts.Fsync == FsyncAlways {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", l.fail(err))
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
// policy when this returns nil; on error nothing was acknowledged, and after
// a write or sync error the log refuses further appends (a record over the
// bound is refused before it is written and poisons nothing).
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
