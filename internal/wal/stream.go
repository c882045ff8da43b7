package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"strings"
	"sync/atomic"

	"fivm/internal/data"
)

// WAL streaming: the primary side of replication follows its own log live.
//
// Two complementary paths cover a follower's catch-up-then-tail lifecycle:
//
//   - ScanFramesAfter reads the on-disk segments and re-emits every already
//     durable frame after a given LSN — the catch-up path;
//   - Log.SubscribeFrames delivers each newly appended frame to a bounded
//     channel — the live tail. A subscriber that falls behind is dropped
//     (overflow), and its consumer re-enters the disk path; appends never
//     block on a slow follower.
//
// Frames are the exact length+CRC byte framing of record.go, so the wire
// format of replication IS the WAL format: a follower can verify, decode,
// and even re-log shipped bytes with the machinery it already has.

// Frame is one appended record in its on-the-wire framing (length + CRC +
// body). Bytes is a lease on a buffer of the log's, shared read-only by every
// subscriber the frame was delivered to: each calls Release once it has sent
// or copied the bytes, and must not touch them afterwards — the last Release
// hands the buffer to a later append. A frame never released (an overflowed
// or abandoned subscription's) just leaves its buffer to the collector.
type Frame struct {
	LSN   uint64
	Bytes []byte
	lease *frameLease
}

// frameLease is one shared frame buffer and the deliveries still holding it.
type frameLease struct {
	log  *Log
	buf  []byte
	refs atomic.Int32
}

// maxFreeFrames bounds the log's free list of frame buffers; one draining
// subscriber keeps a handful in flight.
const maxFreeFrames = 32

// Release gives up this delivery's hold on the frame's bytes.
func (f Frame) Release() {
	switch n := f.lease.refs.Add(-1); {
	case n < 0:
		panic("wal: frame released twice")
	case n == 0:
		l := f.lease.log
		l.subMu.Lock()
		l.recycle(f.lease)
		l.subMu.Unlock()
	}
}

// recycle puts a buffer nobody holds any more on the free list. Needs subMu.
func (l *Log) recycle(fl *frameLease) {
	if len(l.frameFree) < maxFreeFrames {
		l.frameFree = append(l.frameFree, fl)
	}
}

// FrameStats counts the frames notify delivered in a buffer from the free
// list and in a freshly allocated one. Appender goroutine only.
func (l *Log) FrameStats() (leased, allocated uint64) { return l.framesLeased, l.framesAllocated }

// FrameSub is one live subscription to a Log's appends.
type FrameSub struct {
	log        *Log
	ch         chan Frame
	overflowed atomic.Bool
	closed     atomic.Bool
}

// C is the delivery channel. It is closed when the subscription overflows
// (a consumer too slow for its buffer — check Overflowed and fall back to
// ScanFramesAfter) or when the log closes.
func (s *FrameSub) C() <-chan Frame { return s.ch }

// Overflowed reports whether the subscription was dropped because its buffer
// filled.
func (s *FrameSub) Overflowed() bool { return s.overflowed.Load() }

// Close detaches the subscription. Idempotent; safe from any goroutine.
func (s *FrameSub) Close() {
	s.log.unsubscribe(s)
}

// SubscribeFrames registers a live subscriber receiving every subsequently
// appended frame on a channel buffered to `buf` frames (minimum 1). Safe
// from any goroutine; delivery happens on the appender's goroutine and never
// blocks it.
func (l *Log) SubscribeFrames(buf int) *FrameSub {
	if buf < 1 {
		buf = 1
	}
	s := &FrameSub{log: l, ch: make(chan Frame, buf)}
	l.subMu.Lock()
	if l.subsClosed {
		l.subMu.Unlock()
		s.closed.Store(true)
		close(s.ch)
		return s
	}
	l.subs = append(l.subs, s)
	l.subMu.Unlock()
	return s
}

// notify fans one just-appended frame out to the live subscribers. Called by
// the Append* methods after the LSN advances; the reused frame scratch is
// copied once, into a buffer leased from the free list and shared by every
// subscriber. A subscriber whose buffer is full is marked overflowed and
// dropped — its consumer rescans from disk.
func (l *Log) notify(lsn uint64) {
	l.subMu.Lock()
	defer l.subMu.Unlock()
	if len(l.subs) == 0 {
		return
	}
	var fl *frameLease
	if n := len(l.frameFree); n > 0 {
		fl, l.frameFree = l.frameFree[n-1], l.frameFree[:n-1]
		l.framesLeased++
	} else {
		fl = &frameLease{log: l}
		l.framesAllocated++
	}
	fl.buf = append(fl.buf[:0], l.frame...)
	// One hold per subscriber up front: a delivered frame may be released
	// before this loop ends.
	fl.refs.Store(int32(len(l.subs)))
	f := Frame{LSN: lsn, Bytes: fl.buf, lease: fl}
	kept := l.subs[:0]
	for _, s := range l.subs {
		select {
		case s.ch <- f:
			kept = append(kept, s)
		default:
			s.overflowed.Store(true)
			s.closed.Store(true)
			close(s.ch)
			if fl.refs.Add(-1) == 0 {
				l.recycle(fl)
			}
		}
	}
	for i := len(kept); i < len(l.subs); i++ {
		l.subs[i] = nil
	}
	l.subs = kept
}

// unsubscribe removes one subscription and closes its channel.
func (l *Log) unsubscribe(s *FrameSub) {
	l.subMu.Lock()
	defer l.subMu.Unlock()
	for i, cur := range l.subs {
		if cur == s {
			l.subs = append(l.subs[:i], l.subs[i+1:]...)
			break
		}
	}
	if s.closed.CompareAndSwap(false, true) {
		close(s.ch)
	}
}

// closeSubs drops every live subscription (Log.Close).
func (l *Log) closeSubs() {
	l.subMu.Lock()
	defer l.subMu.Unlock()
	l.subsClosed = true
	for _, s := range l.subs {
		if s.closed.CompareAndSwap(false, true) {
			close(s.ch)
		}
	}
	l.subs = nil
}

// FS returns the filesystem the log writes through (the replication sender
// reads segments back through it).
func (l *Log) FS() VFS { return l.opts.FS }

// peekFrame validates one frame at the front of b — length plausibility and
// body CRC — and returns its LSN and total framed length without decoding
// the payload.
func peekFrame(b []byte) (lsn uint64, n int, err error) {
	if len(b) < 8 {
		return 0, 0, errTorn
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if ln == 0 || ln > maxRecordBytes {
		return 0, 0, fmt.Errorf("wal: implausible record length %d", ln)
	}
	if uint32(len(b)-8) < ln {
		return 0, 0, errTorn
	}
	body := b[8 : 8+ln]
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, 0, errBadCRC
	}
	if len(body) < 2 {
		return 0, 0, errBadCRC
	}
	lsn, vn := binary.Uvarint(body[1:])
	if vn <= 0 {
		return 0, 0, fmt.Errorf("wal: truncated record LSN")
	}
	return lsn, 8 + int(ln), nil
}

// ScanFramesAfter reads the WAL directory's segments in order and calls fn
// with each durable frame whose LSN exceeds afterLSN, in LSN order. It
// returns the last LSN emitted (afterLSN when nothing was) and whether a gap
// was hit: the next available LSN did not directly follow — the records in
// between were pruned by a checkpoint, so the caller must restart from a
// checkpoint instead.
//
// The scan tolerates the races of reading a live log: a torn or partially
// written frame at the tail simply ends the scan (those bytes arrive later,
// via the subscription), and a segment deleted between ReadDir and ReadFile
// is skipped (its absence surfaces as a gap if it mattered). Frame bytes
// passed to fn are only valid during the call.
func ScanFramesAfter(fs VFS, dir string, afterLSN uint64, fn func(lsn uint64, frame []byte) error) (last uint64, gap bool, err error) {
	last = afterLSN
	names, err := fs.ReadDir(dir)
	if err != nil {
		if isNotExist(err) {
			return last, false, nil
		}
		return last, false, err
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	for _, name := range segs {
		b, err := fs.ReadFile(path.Join(dir, name))
		if err != nil {
			if isNotExist(err) {
				continue // pruned between ReadDir and ReadFile
			}
			return last, false, err
		}
		if len(b) < segHdrLen || string(b[:8]) != segMagic {
			continue // header still being written
		}
		at := segHdrLen
		for at < len(b) {
			lsn, n, err := peekFrame(b[at:])
			if err != nil {
				// Torn tail of the active segment (or bytes not yet fully
				// visible through the VFS): stop here; the rest arrives live.
				return last, false, nil
			}
			if lsn > last {
				if lsn != last+1 {
					return last, true, nil
				}
				if err := fn(lsn, b[at:at+n]); err != nil {
					return last, false, err
				}
				last = lsn
			}
			at += n
		}
	}
	return last, false, nil
}

// DecodeFrame decodes one framed record from the front of b, returning the
// record and the bytes consumed. It is the exported face of the WAL's record
// codec; the record's tuples are heap tuples, the caller's to keep.
func DecodeFrame(b []byte) (Record, int, error) {
	return decodeRecord(b, nil)
}

// DecodeFrameInto is DecodeFrame with a batch record's updates and tuples
// taken from the caller's arena: they die at its next Rewind, which a
// replication follower calls once the record is applied.
func DecodeFrameInto(b []byte, a *data.BatchArena) (Record, int, error) {
	return decodeRecord(b, a)
}

// LatestCheckpointBytes returns the newest valid checkpoint's raw file bytes
// and decoded form, whose tables read their rows from those bytes, or
// (nil, nil, nil) when the directory holds none. The raw bytes are what a
// primary ships to a follower that is too far behind for frame catch-up.
func LatestCheckpointBytes(fs VFS, dir string) ([]byte, *Checkpoint, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if isNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	var cks []string
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck") {
			cks = append(cks, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(cks)))
	for _, n := range cks {
		b, err := fs.ReadFile(path.Join(dir, n))
		if err != nil {
			continue
		}
		ck, err := decodeCheckpoint(b)
		if err != nil {
			continue
		}
		return b, ck, nil
	}
	return nil, nil, nil
}

// DecodeCheckpointBytes decodes a checkpoint file's contents (as shipped by
// checkpoint transfer).
func DecodeCheckpointBytes(b []byte) (*Checkpoint, error) {
	return decodeCheckpoint(b)
}

// CheckpointFileName returns the canonical file name of a checkpoint
// covering lsn, for a follower materializing a shipped checkpoint into its
// own WAL directory.
func CheckpointFileName(lsn uint64) string { return ckptFileName(lsn) }
