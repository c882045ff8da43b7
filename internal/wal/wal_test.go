package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"fivm/internal/data"
)

func testBatch(n int64) []data.BaseUpdate {
	return []data.BaseUpdate{
		{Rel: "R", Tuples: []data.Tuple{data.Ints(n, n+1), data.Ints(-n, 7)}, Mult: 1},
		{Rel: "S", Tuples: []data.Tuple{{data.String("k"), data.Float(2.5)}}, Mult: -2},
	}
}

func openMem(t *testing.T, fs VFS, policy FsyncPolicy) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(Options{Dir: "wal", FS: fs, Fsync: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// tail reads the records after rec's checkpoint the way recovery replays
// them: ScanFramesAfter from the checkpoint's LSN, one frame at a time —
// decoded onto the heap here, as the tests keep them. A gap fails the test.
func tail(t *testing.T, fs VFS, rec *Recovery) []Record {
	t.Helper()
	after := uint64(0)
	if rec.Checkpoint != nil {
		after = rec.Checkpoint.LSN
	}
	var recs []Record
	_, gap, err := ScanFramesAfter(fs, "wal", after, func(_ uint64, frame []byte) error {
		r, _, err := DecodeFrame(slices.Clone(frame))
		recs = append(recs, r)
		return err
	})
	if err != nil || gap {
		t.Fatalf("reading the tail after LSN %d: err=%v gap=%v", after, err, gap)
	}
	return recs
}

func TestAppendAndReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, rec := openMem(t, fs, FsyncAlways)
	if rec.Checkpoint != nil || len(tail(t, fs, rec)) != 0 {
		t.Fatalf("fresh log reported recovery state: %+v", rec)
	}
	// The create-view record as earlier versions wrote it for ComposeChains,
	// CostMaterialize and AutoReoptimize over four workers: workers 4 and
	// flags 0b111, of which the workers and bit 2 are ignored.
	create := encodeCreateViewBody(nil, 1, ViewDef{Name: "v", SQL: "SELECT ..."})
	create[len(create)-2], create[len(create)-1] = 4, 0b111
	if err := l.append(create); err != nil {
		t.Fatal(err)
	}
	l.lsn = 1
	for i := int64(1); i <= 5; i++ {
		if err := l.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendDropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openMem(t, fs, FsyncAlways)
	defer l2.Close()
	recs := tail(t, fs, rec2)
	if len(recs) != 7 {
		t.Fatalf("recovered %d records, want 7", len(recs))
	}
	if recs[0].Type != recCreateView || recs[0].Create.Name != "v" ||
		!recs[0].Create.ComposeChains ||
		!recs[0].Create.CostMaterialize {
		t.Errorf("create record mismatch: %+v", recs[0].Create)
	}
	if again := encodeCreateViewBody(nil, 1, *recs[0].Create); again[len(again)-2] != 0 || again[len(again)-1] != 0b011 {
		t.Errorf("create record re-encodes with workers %d, flags %03b, want 0, 011", again[len(again)-2], again[len(again)-1])
	}
	for i := 1; i <= 5; i++ {
		r := recs[i]
		if r.Type != recBatch || r.Applied != uint64(i) {
			t.Fatalf("record %d: type %d applied %d", i, r.Type, r.Applied)
		}
		want := testBatch(int64(i))
		if len(r.Batch) != len(want) {
			t.Fatalf("record %d: %d updates, want %d", i, len(r.Batch), len(want))
		}
		for j, u := range r.Batch {
			w := want[j]
			if u.Rel != w.Rel || u.Mult != w.Mult || len(u.Tuples) != len(w.Tuples) {
				t.Fatalf("record %d update %d: %+v want %+v", i, j, u, w)
			}
			for k := range u.Tuples {
				if !slices.Equal(u.Tuples[k], w.Tuples[k]) {
					t.Errorf("record %d update %d tuple %d: %v want %v", i, j, k, u.Tuples[k], w.Tuples[k])
				}
			}
		}
	}
	if recs[6].Type != recDropView || recs[6].Drop != "v" {
		t.Errorf("drop record mismatch: %+v", recs[6])
	}
	// LSNs strictly increase and the reopened log continues past them.
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("LSNs not strictly increasing")
		}
	}
	if l2.LSN() != recs[6].LSN {
		t.Errorf("reopened LSN %d, want %d", l2.LSN(), recs[6].LSN)
	}
}

// Torn tails at every possible byte offset must truncate cleanly to the
// preceding record boundary, never error, never resurrect partial records.
func TestTornTailTruncationEveryOffset(t *testing.T) {
	// Build a reference log and remember the full segment bytes.
	build := func(fs VFS) *Log {
		l, _, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			if err := l.AppendBatch(uint64(i), testBatch(i)); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	ref := NewMemFS()
	build(ref)
	full, err := ref.ReadFile("wal/" + segFileName(1))
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: decode to find where each record ends.
	var bounds []int
	at := segHdrLen
	for at < len(full) {
		_, n, err := decodeRecord(full[at:], nil)
		if err != nil {
			t.Fatal(err)
		}
		at += n
		bounds = append(bounds, at)
	}
	if len(bounds) != 3 {
		t.Fatalf("expected 3 records, got %d", len(bounds))
	}

	for cut := 0; cut <= len(full); cut++ {
		fs := NewMemFS()
		build(fs)
		name := "wal/" + segFileName(1)
		if err := fs.Truncate(name, int64(cut)); err != nil {
			t.Fatal(err)
		}
		l, rec := openMem(t, fs, FsyncNever)
		l.Close()
		// Count how many full records survive the cut.
		want := 0
		for _, b := range bounds {
			if cut >= b {
				want++
			}
		}
		if got := len(tail(t, fs, rec)); got != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, got, want)
		}
		wantTorn := int64(0)
		if cut < segHdrLen {
			// The segment header itself is torn: the whole prefix goes.
			wantTorn = int64(cut)
		} else if want < len(bounds) {
			start := segHdrLen
			if want > 0 {
				start = bounds[want-1]
			}
			if cut > start {
				wantTorn = int64(cut - start)
			}
		}
		if rec.Truncated != wantTorn {
			t.Errorf("cut at %d: truncated %d bytes, want %d", cut, rec.Truncated, wantTorn)
		}
	}
}

// A final segment whose header never made it whole (a crash right after an
// Open started it) holds no record: Open counts its bytes as torn and removes
// it, so the next Open does not find it mid-log.
func TestTornSegmentHeaderReopens(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	if err := l.AppendBatch(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, _ = openMem(t, fs, FsyncNever) // starts segment 2
	l.Close()
	if err := fs.Truncate("wal/"+segFileName(2), 5); err != nil {
		t.Fatal(err)
	}
	l, rec := openMem(t, fs, FsyncNever)
	l.Close()
	if rec.Truncated != 5 {
		t.Errorf("truncated %d bytes, want the 5 of the torn header", rec.Truncated)
	}
	l, rec = openMem(t, fs, FsyncNever)
	l.Close()
	if recs := tail(t, fs, rec); len(recs) != 1 || recs[0].Applied != 1 {
		t.Fatalf("recovered %+v, want batch 1", recs)
	}
}

// A CRC error in a non-final segment is corruption, not a torn tail.
func TestMidLogCorruptionIsError(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncNever, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1 rotates after every record: three records, three
	// segments (plus the freshly rotated empty one).
	for i := int64(1); i <= 3; i++ {
		if err := l.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload byte in the FIRST segment.
	name := "wal/" + segFileName(1)
	b, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[segHdrLen+10] ^= 0xff
	f, _ := fs.Create(name)
	f.Write(b)
	f.Close()

	if _, _, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncNever}); err == nil {
		t.Fatal("corrupted non-final segment opened without error")
	}
}

func TestSegmentRotationAndOrder(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncNever, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := int64(1); i <= n; i++ {
		if err := l.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := fs.ReadDir("wal")
	if len(names) < 3 {
		t.Fatalf("expected multiple segments, got %v", names)
	}
	l2, rec := openMem(t, fs, FsyncNever)
	l2.Close()
	recs := tail(t, fs, rec)
	if len(recs) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Applied != uint64(i+1) {
			t.Fatalf("record %d applied %d", i, r.Applied)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	// always: one sync per append.
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncAlways)
	base := fs.SyncCount()
	for i := int64(1); i <= 4; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	if got := fs.SyncCount() - base; got != 4 {
		t.Errorf("fsync=always: %d syncs for 4 appends", got)
	}
	l.Close()

	// never: appends alone never sync.
	fs = NewMemFS()
	l, _ = openMem(t, fs, FsyncNever)
	base = fs.SyncCount()
	for i := int64(1); i <= 4; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	if got := fs.SyncCount() - base; got != 0 {
		t.Errorf("fsync=never: %d syncs for 4 appends", got)
	}
	l.Close()
}

// ParseFsync accepts exactly the names String prints, and "" for the
// default; anything else, the removed "interval" included, is refused with
// the accepted names.
func TestParseFsync(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FsyncPolicy
		err  bool
	}{
		{in: "always", want: FsyncAlways},
		{in: "never", want: FsyncNever},
		{in: "", want: FsyncNever},
		{in: "ALWAYS", want: FsyncAlways},
		{in: "interval", err: true},
		{in: "sometimes", err: true},
	} {
		p, err := ParseFsync(c.in)
		if c.err {
			if err == nil || !strings.Contains(err.Error(), "want always or never") {
				t.Errorf("ParseFsync(%q) = %v, %v: want an error naming always and never", c.in, p, err)
			}
			continue
		}
		if err != nil || p != c.want {
			t.Errorf("ParseFsync(%q) = %v, %v: want %v", c.in, p, err, c.want)
		}
		if c.in != "" && c.in == strings.ToLower(c.in) && p.String() != c.in {
			t.Errorf("ParseFsync(%q).String() = %q", c.in, p.String())
		}
		if back, err := ParseFsync(p.String()); err != nil || back != p {
			t.Errorf("ParseFsync(%q) round trip: %v, %v", p.String(), back, err)
		}
	}
}

// Unsynced appends under fsync=never are lost on crash but never torn:
// recovery sees a clean prefix.
func TestCrashLosesOnlyUnsyncedTail(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	for i := int64(1); i <= 3; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	if err := l.Sync(); err != nil { // acknowledge the first three
		t.Fatal(err)
	}
	for i := int64(4); i <= 6; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	fs.Crash() // unsynced records 4-6 vanish

	l2, rec := openMem(t, fs, FsyncNever)
	l2.Close()
	recs := tail(t, fs, rec)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want the 3 synced ones", len(recs))
	}
	for i, r := range recs {
		if r.Applied != uint64(i+1) {
			t.Errorf("record %d applied %d", i, r.Applied)
		}
	}
}

func TestInjectedWriteFailurePoisonsLog(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _, err := Open(Options{Dir: "wal", FS: ffs, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfterBytes(10) // next append tears mid-record
	if err := l.AppendBatch(2, testBatch(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append returned %v", err)
	}
	// The log is poisoned: further appends refuse.
	if err := l.AppendBatch(3, testBatch(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after failure returned %v", err)
	}
	l.Close()

	// The torn 10 bytes are on "disk"; recovery truncates them away.
	l2, rec, err := Open(Options{Dir: "wal", FS: mem, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if recs := tail(t, mem, rec); len(recs) != 1 || recs[0].Applied != 1 {
		t.Fatalf("recovered %+v, want just batch 1", recs)
	}
	if rec.Truncated != 10 {
		t.Errorf("truncated %d bytes, want 10", rec.Truncated)
	}
}

func TestInjectedSyncFailure(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	l, _, err := Open(Options{Dir: "wal", FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailNthSync(1)
	if err := l.AppendBatch(1, testBatch(1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with failing sync returned %v", err)
	}
	if err := l.AppendBatch(2, testBatch(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after sync failure returned %v", err)
	}
	l.Close()
}

func TestInjectedCreateFailure(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	ffs.FailNthCreate(1)
	if _, _, err := Open(Options{Dir: "wal", FS: ffs, Fsync: FsyncNever}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Open with failing create returned %v", err)
	}
}

// A record over maxRecordBytes is refused before anything is written: the
// log stays usable, and recovery reads the records around it.
func TestAppendRefusesRecordOverBound(t *testing.T) {
	defer func(n int) { maxRecordBytes = n }(maxRecordBytes)
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncAlways)
	if err := l.AppendBatch(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	big := testBatch(2)
	big[1].Tuples = append(big[1].Tuples, data.Tuple{data.String(strings.Repeat("x", 200)), data.Float(1)})
	maxRecordBytes = len(encodeBatchBody(nil, 2, 2, big)) - 1
	err := l.AppendBatch(2, big)
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("append of a record over the bound: %v", err)
	}
	if l.Failure() != nil || l.LSN() != 1 {
		t.Fatalf("a refused record poisoned the log (%v) or took an LSN (%d)", l.Failure(), l.LSN())
	}
	if err := l.AppendBatch(2, testBatch(3)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rec := openMem(t, fs, FsyncAlways)
	defer l2.Close()
	if recs := tail(t, fs, rec); len(recs) != 2 || recs[1].LSN != 2 || len(recs[1].Batch[0].Tuples) != 2 {
		t.Fatalf("recovered %+v, want the two records around the refused one", recs)
	}
}

// BatchBytes bounds a batch record: even with the longest LSN and applied
// count, the record is its type byte, three uvarints and at most BatchBytes
// of updates — so updates within MaxBatchBytes make a record within
// maxRecordBytes.
func TestBatchBytesBoundsRecord(t *testing.T) {
	long := data.String(strings.Repeat("y", 300))
	batches := [][]data.BaseUpdate{
		nil,
		testBatch(1),
		{{Rel: "R", Tuples: []data.Tuple{data.Ints(1, 2)}}}, // Mult 0 is written as 1
		{{Rel: strings.Repeat("r", 130), Tuples: []data.Tuple{{long, data.Int(-1)}, {data.String(""), data.Float(0)}}, Mult: -70}},
		{{Rel: "E", Mult: 1 << 40}},
	}
	for _, b := range batches {
		body := len(encodeBatchBody(nil, math.MaxUint64, math.MaxUint64, b))
		if head := 1 + 3*binary.MaxVarintLen64; body > head+BatchBytes(b) {
			t.Errorf("%v: a %d-byte record, over its header %d + BatchBytes %d", b, body, head, BatchBytes(b))
		}
	}
}

func TestCheckpointRoundTripAndPruning(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	for i := int64(1); i <= 3; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	ck := &Checkpoint{
		Applied: 3,
		Seq:     9,
		Views: []ViewDef{
			{Name: "v1", SQL: "SELECT A, SUM(B) FROM R GROUP BY A", ComposeChains: true},
			{Name: "v2", SQL: "SELECT SUM(B) FROM R", CostMaterialize: true},
		},
		Bases: []BaseTable{
			table("R", data.NewSchema("A", "B"), []data.Tuple{data.Ints(1, 2), data.Ints(3, 4)}, []int64{5, -1}),
			table("S", data.NewSchema("A", "C"), []data.Tuple{{data.Int(1), data.String("x")}}, []int64{1}),
		},
	}
	if err := l.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	// Records after the checkpoint.
	for i := int64(4); i <= 5; i++ {
		l.AppendBatch(uint64(i), testBatch(i))
	}
	l.Close()

	// The pre-checkpoint segment is pruned.
	names, _ := fs.ReadDir("wal")
	for _, n := range names {
		if n == segFileName(1) {
			t.Errorf("pre-checkpoint segment survived pruning: %v", names)
		}
	}

	l2, rec := openMem(t, fs, FsyncNever)
	l2.Close()
	got := rec.Checkpoint
	if got == nil {
		t.Fatal("no checkpoint recovered")
	}
	if got.Applied != 3 || got.Seq != 9 || got.LSN != 3 {
		t.Errorf("checkpoint header %+v", got)
	}
	if len(got.Views) != 2 || got.Views[0] != ck.Views[0] || got.Views[1] != ck.Views[1] {
		t.Errorf("views %+v", got.Views)
	}
	if len(got.Bases) != 2 || got.Bases[0].Rel != "R" || !got.Bases[0].Schema.Equal(ck.Bases[0].Schema) {
		t.Fatalf("bases %+v", got.Bases)
	}
	wantRows, wantMults := []data.Tuple{data.Ints(1, 2), data.Ints(3, 4)}, []int64{5, -1}
	i := 0
	for row, mult := range got.Bases[0].All {
		if i >= len(wantRows) || !slices.Equal(row, wantRows[i]) || mult != wantMults[i] {
			t.Errorf("base R row %d: %v/%d", i, row, mult)
		}
		i++
	}
	if i != len(wantRows) || got.Bases[0].Len != len(wantRows) {
		t.Errorf("base R: %d rows read, Len %d, want %d", i, got.Bases[0].Len, len(wantRows))
	}
	// Only the tail after the checkpoint replays.
	if recs := tail(t, fs, rec); len(recs) != 2 || recs[0].Applied != 4 || recs[1].Applied != 5 {
		t.Fatalf("replay tail %+v, want batches 4 and 5", recs)
	}
}

func TestCheckpointSupersedesOlder(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	l.AppendBatch(1, testBatch(1))
	if err := l.WriteCheckpoint(&Checkpoint{Applied: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(2, testBatch(2))
	if err := l.WriteCheckpoint(&Checkpoint{Applied: 2, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	names, _ := fs.ReadDir("wal")
	ckpts := 0
	for _, n := range names {
		if len(n) > 5 && n[:5] == "ckpt-" {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Errorf("%d checkpoint files after pruning, want 1 (%v)", ckpts, names)
	}
	l2, rec := openMem(t, fs, FsyncNever)
	l2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Applied != 2 {
		t.Fatalf("recovered checkpoint %+v, want applied=2", rec.Checkpoint)
	}
	if recs := tail(t, fs, rec); len(recs) != 0 {
		t.Errorf("replay tail %+v, want empty", recs)
	}
}

// A corrupt newest checkpoint must fall back to the older valid one.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	l.AppendBatch(1, testBatch(1))
	if err := l.WriteCheckpoint(&Checkpoint{Applied: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Plant a corrupt "newer" checkpoint (higher LSN in the name).
	f, _ := fs.Create("wal/" + ckptFileName(99))
	f.Write([]byte("garbage"))
	f.Close()

	l2, rec := openMem(t, fs, FsyncNever)
	l2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Applied != 1 {
		t.Fatalf("recovered %+v, want fallback to applied=1", rec.Checkpoint)
	}
}

// The steady-state append path must not allocate: encoding reuses the body
// scratch, framing reuses the frame scratch, and MemVFS preallocates.
func TestAllocGuardAppendBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	l, _, err := Open(Options{Dir: "wal", FS: NewMemFS(), Fsync: FsyncNever, SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := testBatch(42)
	applied := uint64(0)
	// Warm up so scratch buffers reach steady size.
	for i := 0; i < 4; i++ {
		applied++
		if err := l.AppendBatch(applied, batch); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		applied++
		if err := l.AppendBatch(applied, batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendBatch: %.1f allocs/op, want 0", allocs)
	}
}
