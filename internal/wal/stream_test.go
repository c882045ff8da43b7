package wal

import (
	"path"
	"testing"

	"fivm/internal/data"
)

func streamBatch(n int) []data.BaseUpdate {
	return []data.BaseUpdate{{
		Rel:    "R",
		Tuples: []data.Tuple{{data.Int(int64(n)), data.Int(int64(n * 10))}},
		Mult:   1,
	}}
}

// Live subscribers receive every appended frame, in order, decodable with
// the record codec, and the bytes are stable while the lease is held (the
// log's scratch is reused across appends; a frame buffer only once released).
func TestSubscribeFramesDeliversAppends(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	sub := l.SubscribeFrames(16)
	defer sub.Close()

	const n = 5
	for i := 1; i <= n; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	var frames []Frame
	for i := 0; i < n; i++ {
		frames = append(frames, <-sub.C())
	}
	for i, f := range frames {
		if f.LSN != uint64(i+1) {
			t.Fatalf("frame %d: lsn %d, want %d", i, f.LSN, i+1)
		}
		rec, used, err := DecodeFrame(f.Bytes)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if used != len(f.Bytes) {
			t.Fatalf("frame %d: decoded %d of %d bytes", i, used, len(f.Bytes))
		}
		if rec.LSN != f.LSN || rec.Applied != uint64(i+1) {
			t.Fatalf("frame %d: record lsn=%d applied=%d", i, rec.LSN, rec.Applied)
		}
		if got := rec.Batch[0].Tuples[0][0].AsInt(); got != int64(i+1) {
			t.Fatalf("frame %d: tuple value %d, want %d", i, got, i+1)
		}
	}
}

// A subscriber whose buffer fills is dropped: its channel closes and
// Overflowed reports true, while the log keeps appending unbothered.
func TestSubscribeFramesOverflowDrops(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	sub := l.SubscribeFrames(2)
	for i := 1; i <= 4; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for range sub.C() {
		got++
	}
	if got != 2 {
		t.Fatalf("received %d frames before overflow, want 2", got)
	}
	if !sub.Overflowed() {
		t.Fatal("sub not marked overflowed")
	}
	// The log is still healthy and a fresh subscriber works.
	sub2 := l.SubscribeFrames(4)
	defer sub2.Close()
	if err := l.AppendBatch(5, streamBatch(5)); err != nil {
		t.Fatal(err)
	}
	if f := <-sub2.C(); f.LSN != 5 {
		t.Fatalf("fresh sub got lsn %d, want 5", f.LSN)
	}
}

// Closing the log closes all live subscriptions without marking overflow.
func TestSubscribeFramesClosedOnLogClose(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sub := l.SubscribeFrames(4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel not closed after log close")
	}
	if sub.Overflowed() {
		t.Fatal("log close must not mark overflow")
	}
	// Subscribing after close yields an already-closed subscription.
	late := l.SubscribeFrames(1)
	if _, ok := <-late.C(); ok {
		t.Fatal("late subscription not closed")
	}
}

// ScanFramesAfter re-emits the durable frames after a given LSN, across
// segment rotations, and stops cleanly at a torn tail.
func TestScanFramesAfter(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "w", FS: fs, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 1; i <= n; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
	}

	var got []uint64
	last, gap, err := ScanFramesAfter(fs, "w", 3, func(lsn uint64, frame []byte) error {
		rec, _, err := DecodeFrame(frame)
		if err != nil {
			return err
		}
		if rec.LSN != lsn {
			t.Fatalf("frame lsn %d decodes to %d", lsn, rec.LSN)
		}
		got = append(got, lsn)
		return nil
	})
	if err != nil || gap {
		t.Fatalf("scan: err=%v gap=%v", err, gap)
	}
	if last != n || len(got) != n-3 {
		t.Fatalf("scan after 3: last=%d frames=%v", last, got)
	}
	for i, lsn := range got {
		if lsn != uint64(4+i) {
			t.Fatalf("frame order: %v", got)
		}
	}

	// Tear the tail of the last segment holding frames (rotation may have
	// left a fresh empty one after it): the scan stops before the torn frame
	// without error (it would arrive via the live path).
	var segName string
	var b []byte
	for seq := l.segSeq; seq > 0; seq-- {
		name := path.Join("w", segFileName(seq))
		data, err := fs.ReadFile(name)
		if err == nil && len(data) > segHdrLen {
			segName, b = name, data
			break
		}
	}
	if segName == "" {
		t.Fatal("no segment with frames")
	}
	if err := fs.Truncate(segName, int64(len(b)-3)); err != nil {
		t.Fatal(err)
	}
	last, gap, err = ScanFramesAfter(fs, "w", 0, func(uint64, []byte) error { return nil })
	if err != nil || gap {
		t.Fatalf("torn scan: err=%v gap=%v", err, gap)
	}
	if last >= n {
		t.Fatalf("torn scan reached lsn %d; the torn frame must be dropped", last)
	}
	l.Close()
}

// A checkpoint prunes older segments; scanning from an LSN the prune removed
// reports a gap, and LatestCheckpointBytes returns the shipped bytes that
// bridge it.
func TestScanFramesAfterGapAndCheckpoint(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(&Checkpoint{Applied: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 5; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
	}

	// A follower at LSN 1 finds LSNs 2..3 pruned: gap.
	_, gap, err := ScanFramesAfter(fs, "w", 1, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !gap {
		t.Fatal("pruned prefix should report a gap")
	}

	raw, ck, err := LatestCheckpointBytes(fs, "w")
	if err != nil || ck == nil {
		t.Fatalf("latest checkpoint: %v %v", ck, err)
	}
	if ck.LSN != 3 || ck.Applied != 3 {
		t.Fatalf("checkpoint lsn=%d applied=%d", ck.LSN, ck.Applied)
	}
	ck2, err := DecodeCheckpointBytes(raw)
	if err != nil || ck2.LSN != ck.LSN {
		t.Fatalf("re-decode: %v %v", ck2, err)
	}

	// From the checkpoint's LSN the tail scan is gap-free.
	var got []uint64
	last, gap, err := ScanFramesAfter(fs, "w", ck.LSN, func(lsn uint64, _ []byte) error {
		got = append(got, lsn)
		return nil
	})
	if err != nil || gap {
		t.Fatalf("tail scan: err=%v gap=%v", err, gap)
	}
	if last != 5 || len(got) != 2 {
		t.Fatalf("tail scan: last=%d frames=%v", last, got)
	}
}

// frameLSN decodes a held frame's bytes: what a subscriber that has not
// released it yet must still be able to do.
func frameLSN(t *testing.T, f Frame) uint64 {
	t.Helper()
	rec, used, err := DecodeFrame(f.Bytes)
	if err != nil || used != len(f.Bytes) {
		t.Fatalf("frame %d no longer decodes: %v (%d of %d bytes)", f.LSN, err, used, len(f.Bytes))
	}
	return rec.LSN
}

// TestFrameLeases: a frame's bytes are a lease shared by the subscribers it
// was delivered to. The buffer serves a later append only once every one of
// them has released it — a slow subscriber's frames stay intact however many
// appends a fast one drains meanwhile — a second Release of one delivery is a
// bug and panics, frames nobody releases are simply never reused, and the
// free list stays small.
func TestFrameLeases(t *testing.T) {
	l, _, err := Open(Options{Dir: "w", FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fast, slow := l.SubscribeFrames(64), l.SubscribeFrames(64)
	defer fast.Close()
	defer slow.Close()
	var held []Frame
	for i := 1; i <= 40; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
		f := <-fast.C()
		if frameLSN(t, f) != uint64(i) {
			t.Fatalf("fast subscriber: frame %d carries record %d", i, frameLSN(t, f))
		}
		f.Release()
		if i <= 3 { // the slow one takes three frames and sits on them
			held = append(held, <-slow.C())
		}
	}
	for i, f := range held {
		if got := frameLSN(t, f); got != uint64(i+1) {
			t.Fatalf("a held frame was reused: frame %d now carries record %d", i+1, got)
		}
	}
	if leased, allocated := l.FrameStats(); leased != 0 || allocated != 40 {
		t.Fatalf("with one subscriber holding on: %d frames leased, %d allocated", leased, allocated)
	}
	// The slow subscriber catches up: every buffer comes back, the list keeps
	// a bounded number, and the next appends are served from it.
	for _, f := range held {
		f.Release()
	}
	for i := 4; i <= 40; i++ {
		f := <-slow.C()
		if frameLSN(t, f) != uint64(i) {
			t.Fatalf("slow subscriber: frame %d carries record %d", i, frameLSN(t, f))
		}
		f.Release()
	}
	if n := len(l.frameFree); n != maxFreeFrames {
		t.Fatalf("free list holds %d buffers after 40 came back, want %d", n, maxFreeFrames)
	}
	for i := 41; i <= 45; i++ {
		if err := l.AppendBatch(uint64(i), streamBatch(i)); err != nil {
			t.Fatal(err)
		}
		(<-fast.C()).Release()
		(<-slow.C()).Release()
	}
	if leased, allocated := l.FrameStats(); leased != 5 || allocated != 40 {
		t.Fatalf("after the catch-up: %d frames leased, %d allocated", leased, allocated)
	}

	// One delivery, one Release.
	if err := l.AppendBatch(46, streamBatch(46)); err != nil {
		t.Fatal(err)
	}
	(<-slow.C()).Release()
	f := <-fast.C()
	f.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a frame released twice by one subscriber did not panic")
			}
		}()
		f.Release()
	}()
}

// TestAllocGuardNotify: appending with one subscriber that drains and
// releases allocates nothing once the frame buffer has made its first trip.
func TestAllocGuardNotify(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	l, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sub := l.SubscribeFrames(4)
	defer sub.Close()
	ts := make([]data.Tuple, 200)
	for i := range ts {
		ts[i] = data.Ints(int64(i), 2, 3, 4)
	}
	batch := []data.BaseUpdate{{Rel: "Inventory", Tuples: ts, Mult: 1}}
	applied := uint64(0)
	appendOne := func() {
		applied++
		if err := l.AppendBatch(applied, batch); err != nil {
			t.Fatal(err)
		}
		(<-sub.C()).Release()
	}
	appendOne()
	if allocs := testing.AllocsPerRun(200, appendOne); allocs != 0 {
		t.Errorf("append + notify + release: %.1f allocs/op, want 0", allocs)
	}
	if leased, allocated := l.FrameStats(); allocated != 1 || leased != applied-1 {
		t.Errorf("%d appends: %d frames leased, %d allocated", applied, leased, allocated)
	}
}
