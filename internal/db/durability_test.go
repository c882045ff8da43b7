package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
	"fivm/internal/wal"
)

func durOpts(fs wal.VFS) *DurabilityOptions {
	return &DurabilityOptions{Dir: "wal", FS: fs, Fsync: wal.FsyncAlways}
}

func applyN(t *testing.T, d *DB, batches [][]Update) {
	t.Helper()
	for i, b := range batches {
		if err := d.Apply(b); err != nil {
			t.Fatalf("apply batch %d: %v", i, err)
		}
	}
}

func viewFP(t *testing.T, d *DB, name string) string {
	t.Helper()
	s := SnapshotOf[float64](d.Epoch(), name)
	if s == nil {
		t.Fatalf("no snapshot for %s", name)
	}
	return fpEntries(s.Result().SortedEntries())
}

func durBatches() [][]Update {
	return [][]Update{
		{Insert("R", tup(1, 2), tup(2, 3)), Insert("S", tup(1, 10))},
		{Insert("S", tup(2, 20)), Insert("T", tup(10, 7))},
		{Delete("R", tup(1, 2)), Insert("R", tup(1, 5))},
		{Insert("R", tup(3, 1)), Delete("S", tup(2, 20))},
		{Insert("S", tup(3, 30)), Insert("T", tup(30, 9))},
	}
}

const durSQL = "SELECT A, COUNT(*) FROM R NATURAL JOIN S GROUP BY A"

// A durable DB closed cleanly and reopened must come back with the same
// applied count, the same SQL views, and byte-identical view contents.
func TestDurableRestartRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches())
	wantFP := viewFP(t, d, "cnt")
	wantApplied := d.Applied()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Applied() != wantApplied {
		t.Fatalf("recovered applied = %d, want %d", d2.Applied(), wantApplied)
	}
	if !d2.HasView("cnt") {
		t.Fatal("SQL view not recovered")
	}
	if got := viewFP(t, d2, "cnt"); got != wantFP {
		t.Fatalf("recovered view diverges:\n got  %s\n want %s", got, wantFP)
	}
	info := d2.Recovery()
	if info == nil || len(info.Views) != 1 || info.Views[0] != "cnt" {
		t.Fatalf("recovery info %+v", info)
	}
	if info.ReplayedBatches != len(durBatches()) {
		t.Errorf("replayed %d batches, want %d", info.ReplayedBatches, len(durBatches()))
	}

	// The recovered DB keeps working: more batches, identical to a fresh
	// in-memory run of the full stream.
	extra := []Update{Insert("R", tup(9, 9)), Insert("S", tup(9, 90))}
	if err := d2.Apply(extra); err != nil {
		t.Fatal(err)
	}

	ref, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := CreateViewSQL(ref, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, ref, durBatches())
	if err := ref.Apply(extra); err != nil {
		t.Fatal(err)
	}
	if got, want := viewFP(t, d2, "cnt"), viewFP(t, ref, "cnt"); got != want {
		t.Fatalf("post-recovery stream diverges:\n got  %s\n want %s", got, want)
	}
}

// A create-view record as earlier versions wrote it for ComposeChains,
// CostMaterialize and AutoReoptimize has flags 0b111, and one of a view
// they sharded over four workers a workers field of 4. It still recovers, to
// the contents of the view the first two options create today.
func TestRecoverCreateViewFlagsOfEarlierVersions(t *testing.T) {
	fs := wal.NewMemFS()
	opts := ViewOptions{ComposeChains: true, CostMaterialize: true}
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", durSQL, opts); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The create-view record is the segment's first frame (length, CRC, body),
	// its flags byte the body's last and its workers uvarint the one before:
	// set bit 2, set workers to 4 and re-seal the CRC.
	const seg = "wal/wal-00000001.seg"
	b, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	end := int(wal.RecordBoundaries(b)[0])
	start := 0
	for int(binary.LittleEndian.Uint32(b[start:])) != end-start-8 {
		start++
	}
	body := b[start+8 : end]
	if body[len(body)-2] != 0 || body[len(body)-1] != 0b011 {
		t.Fatalf("create-view workers %d, flags %03b, want 0, 011", body[len(body)-2], body[len(body)-1])
	}
	body[len(body)-2], body[len(body)-1] = 4, 0b111
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if bounds := wal.RecordBoundaries(b); len(bounds) != 1+len(durBatches()) || int(bounds[0]) != end {
		t.Fatalf("patched segment frames at %v", bounds)
	}
	f, err := fs.Create(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.HasView("cnt") {
		t.Fatal("view not recovered")
	}
	fresh, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	applyN(t, fresh, durBatches())
	if _, err := CreateViewSQL(fresh, "cnt", durSQL, opts); err != nil {
		t.Fatal(err)
	}
	if got, want := viewFP(t, d2, "cnt"), viewFP(t, fresh, "cnt"); got != want {
		t.Fatalf("recovered view diverges from a fresh one:\n got  %s\n want %s", got, want)
	}
}

// Checkpoints must truncate replay: recovery loads the checkpoint and
// replays only the tail, ending in the same state.
func TestCheckpointThenTailReplay(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	batches := durBatches()
	applyN(t, d, batches[:3])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, batches[3:])
	wantFP := viewFP(t, d, "cnt")
	d.Close()

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if info == nil || !info.FromCheckpoint {
		t.Fatalf("recovery info %+v, want checkpoint", info)
	}
	if info.CheckpointApplied != 3 || info.ReplayedBatches != 2 {
		t.Errorf("checkpoint at %d + %d replayed, want 3 + 2", info.CheckpointApplied, info.ReplayedBatches)
	}
	if got := viewFP(t, d2, "cnt"); got != wantFP {
		t.Fatalf("checkpoint recovery diverges:\n got  %s\n want %s", got, wantFP)
	}
	if d2.Applied() != uint64(len(batches)) {
		t.Errorf("applied = %d, want %d", d2.Applied(), len(batches))
	}
}

// Automatic checkpoints fire on the configured cadence.
func TestAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	opts := durOpts(fs)
	opts.CheckpointEvery = 2
	d, err := Open(testCatalog(), Options{Durability: opts})
	if err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()) // 5 batches -> checkpoints after 2 and 4
	d.Close()

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if info == nil || !info.FromCheckpoint || info.CheckpointApplied != 4 {
		t.Fatalf("recovery info %+v, want checkpoint at applied=4", info)
	}
	if info.ReplayedBatches != 1 {
		t.Errorf("replayed %d batches, want 1", info.ReplayedBatches)
	}
	if d2.Applied() != 5 {
		t.Errorf("applied = %d, want 5", d2.Applied())
	}
}

// Dropped views stay dropped after recovery; drops logged mid-stream replay
// at their position.
func TestDropViewSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE VIEW cnt AS " + durSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE VIEW cnt2 AS " + durSQL); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[:2])
	if _, err := d.Exec("DROP VIEW cnt2"); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[2:])
	d.Close()

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.HasView("cnt") || d2.HasView("cnt2") {
		t.Fatalf("recovered views %v, want just cnt", d2.Views())
	}
}

// TestRecoveredViewPlansFromTheSameStatistics: a view without an order plans
// from an ANALYZE of the stored rows it backfills from, so the view recovery
// re-creates from a checkpoint plans exactly as the one it replaces, however
// the batches before it brought the store there (here, with deletions and
// re-insertions).
func TestRecoveredViewPlansFromTheSameStatistics(t *testing.T) {
	cat := Catalog{"R": data.NewSchema("A", "B"), "S": data.NewSchema("B", "C")}
	fs := wal.NewMemFS()
	d, err := Open(cat, Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]data.Tuple, 2000)
	for i := range r {
		r[i] = tup(int64(i), int64(i%5))
	}
	s := make([]data.Tuple, 300)
	for j := range s {
		s[j] = tup(int64(j%5), int64(j))
	}
	applyN(t, d, [][]Update{{Insert("R", r...), Insert("S", s...)}, {Delete("R", r[:1500]...)}, {Insert("R", r[:500]...)}})
	if _, err := d.Exec("CREATE VIEW v AS SELECT C, SUM(1) FROM R NATURAL JOIN S GROUP BY C"); err != nil {
		t.Fatal(err)
	}
	explain := func(d *DB) string {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.views["v"].(*View[float64]).m.Explain()
	}
	want := explain(d)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(cat, Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := explain(d2); got != want {
		t.Fatalf("the recovered view plans\n%s\nthe view it replaces planned\n%s", got, want)
	}
}

// Satellite: a failure injected after the WAL append but before the view
// fan-out completes must leave the applied counter and the published epoch
// untouched — no half-applied epoch is ever observable.
func TestApplyMidFanoutFailureConsistency(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[:2])

	// Inject the failure through a store observer attached BEFORE the point
	// views would see the batch on the next Apply: the store fans out in
	// attach order, so making the failing observer error first models an
	// engine-side fault mid-apply.
	boom := errors.New("boom")
	fail := true
	d.store.Attach("fault", nil, func([]data.BaseUpdate) error {
		if fail {
			return boom
		}
		return nil
	})
	// Re-attach the view after the failing observer so the fault hits
	// before any view advances.
	d.store.Detach("cnt")
	d.mu.RLock()
	v := d.views["cnt"]
	d.mu.RUnlock()
	d.store.Attach("cnt", v.queryRels(), v.observe)

	preApplied := d.Applied()
	preEpoch := d.Epoch()
	preFP := viewFP(t, d, "cnt")
	preStats := d.ViewStatsOf("cnt")
	preLSN, _ := d.WALStats()

	if err := d.Apply([]Update{Insert("R", tup(7, 7)), Insert("S", tup(7, 70))}); !errors.Is(err, boom) {
		t.Fatalf("Apply returned %v, want injected fault", err)
	}

	if d.Applied() != preApplied {
		t.Errorf("applied advanced to %d on failed batch", d.Applied())
	}
	e := d.Epoch()
	if e.Seq != preEpoch.Seq || e.Applied != preEpoch.Applied {
		t.Errorf("epoch advanced to seq=%d applied=%d on failed batch", e.Seq, e.Applied)
	}
	if got := viewFP(t, d, "cnt"); got != preFP {
		t.Errorf("published view contents changed on failed batch")
	}
	if st := d.ViewStatsOf("cnt"); st.Batches != preStats.Batches || st.Keys != preStats.Keys {
		t.Errorf("view stats advanced on failed batch: %+v -> %+v", preStats, st)
	}
	// Log-first ordering: the batch WAS logged (it precedes the fan-out),
	// so recovery replays it — the log is the source of truth.
	if lsn, _ := d.WALStats(); lsn != preLSN+1 {
		t.Errorf("WAL LSN %d, want %d (batch logged before fan-out)", lsn, preLSN+1)
	}
}

// Satellite: a WAL append failure must surface from Apply without advancing
// the epoch or diverging any view, and the log refuses further appends.
func TestApplyWALFailureConsistency(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	opts := durOpts(ffs)
	d, err := Open(testCatalog(), Options{Durability: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[:2])

	preApplied := d.Applied()
	preEpoch := d.Epoch()
	preFP := viewFP(t, d, "cnt")

	ffs.CrashAfterBytes(5) // tear the next append mid-record
	if err := d.Apply([]Update{Insert("R", tup(8, 8))}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Apply returned %v, want injected WAL failure", err)
	}
	if d.Applied() != preApplied || d.Epoch().Seq != preEpoch.Seq {
		t.Error("state advanced past a failed WAL append")
	}
	if got := viewFP(t, d, "cnt"); got != preFP {
		t.Error("view contents diverged past a failed WAL append")
	}
	// The log is poisoned: subsequent appends surface ErrClosed.
	if err := d.Apply([]Update{Insert("R", tup(9, 9))}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Apply after WAL failure returned %v, want ErrClosed", err)
	}
	// A view whose creation cannot be logged is not kept either.
	if _, err := CreateViewSQL(d, "late", durSQL, ViewOptions{}); !errors.Is(err, wal.ErrClosed) || d.HasView("late") {
		t.Fatalf("CreateViewSQL after WAL failure returned %v and kept the view: %v", err, d.HasView("late"))
	}

	// Recovery from the survivor bytes: only the two acknowledged batches.
	mem.Crash()
	d2, err := Open(testCatalog(), Options{Durability: durOpts(mem)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Applied() != 2 {
		t.Fatalf("recovered applied = %d, want 2", d2.Applied())
	}
	if got := viewFP(t, d2, "cnt"); got != preFP {
		t.Fatalf("recovered view diverges:\n got  %s\n want %s", got, preFP)
	}
}

// Recovery replays the log from its checkpoint's LSN and refuses a gap: with
// the checkpoint gone, the records it covered are pruned, and the tail alone
// (here one CREATE VIEW) would recover a view over an empty store.
func TestRecoveryRefusesGap(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[:2])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	names, _ := fs.ReadDir("wal")
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") {
			if err := fs.Remove("wal/" + n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d, err := Open(testCatalog(), Options{Durability: durOpts(fs)}); err == nil {
		d.Close()
		t.Fatal("recovered across a gap in the log")
	} else if !strings.Contains(err.Error(), "skips from LSN 0") {
		t.Fatalf("recovery error %v, want the gap after LSN 0", err)
	}
}

// Typed views cannot be persisted (their lift functions are code, not
// data); recovery proceeds without them and the caller re-creates.
func TestTypedViewNotPersisted(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[int64](d, "typed", testQuery("typed", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, d, durBatches()[:2])
	d.Close()

	d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.HasView("typed") {
		t.Fatal("typed view unexpectedly persisted")
	}
	// Backfill equivalence: re-creating it now equals a from-the-start run.
	if _, err := CreateView[int64](d2, "typed", testQuery("typed", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := CreateView[int64](ref, "typed", testQuery("typed", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, ref, durBatches()[:2])
	got := fpEntries(SnapshotOf[int64](d2.Epoch(), "typed").Result().SortedEntries())
	want := fpEntries(SnapshotOf[int64](ref.Epoch(), "typed").Result().SortedEntries())
	if got != want {
		t.Fatalf("re-created typed view diverges:\n got  %s\n want %s", got, want)
	}
}

// Durability disabled: Checkpoint errors cleanly, WALStats reports off.
func TestDurabilityDisabled(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Checkpoint(); err == nil {
		t.Error("Checkpoint without durability should fail")
	}
	if _, on := d.WALStats(); on {
		t.Error("WALStats reports enabled without durability")
	}
	if d.Recovery() != nil {
		t.Error("Recovery non-nil without durability")
	}
}

// fsync=never loses unsynced batches on crash but recovery still lands on a
// consistent earlier prefix — never a torn or half-applied state.
func TestFsyncNeverCrashLosesTailOnly(t *testing.T) {
	fs := wal.NewMemFS()
	opts := &DurabilityOptions{Dir: "wal", FS: fs, Fsync: wal.FsyncNever}
	d, err := Open(testCatalog(), Options{Durability: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	batches := durBatches()
	applyN(t, d, batches[:3])
	if err := d.log.Sync(); err != nil { // make the prefix durable
		t.Fatal(err)
	}
	applyN(t, d, batches[3:]) // unsynced: lost on crash
	fs.Crash()

	d2, err := Open(testCatalog(), Options{Durability: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Applied() != 3 {
		t.Fatalf("recovered applied = %d, want the 3 synced batches", d2.Applied())
	}
	// Identical to an uninterrupted run over the same 3-batch prefix.
	ref, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := CreateViewSQL(ref, "cnt", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, ref, batches[:3])
	if got, want := viewFP(t, d2, "cnt"), viewFP(t, ref, "cnt"); got != want {
		t.Fatalf("recovered prefix diverges:\n got  %s\n want %s", got, want)
	}
}

// Exhaustive per-batch restart: stop after every batch count, recover, and
// compare against an uninterrupted oracle at the same prefix.
func TestRecoveryEveryBatchPrefix(t *testing.T) {
	batches := durBatches()
	for n := 0; n <= len(batches); n++ {
		t.Run(fmt.Sprintf("prefix=%d", n), func(t *testing.T) {
			fs := wal.NewMemFS()
			d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CreateViewSQL(d, "cnt", durSQL, ViewOptions{}); err != nil {
				t.Fatal(err)
			}
			applyN(t, d, batches[:n])
			d.Close()

			d2, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()

			ref, err := Open(testCatalog(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if _, err := CreateViewSQL(ref, "cnt", durSQL, ViewOptions{}); err != nil {
				t.Fatal(err)
			}
			applyN(t, ref, batches[:n])

			if d2.Applied() != uint64(n) {
				t.Fatalf("recovered applied = %d, want %d", d2.Applied(), n)
			}
			if got, want := viewFP(t, d2, "cnt"), viewFP(t, ref, "cnt"); got != want {
				t.Fatalf("prefix %d diverges:\n got  %s\n want %s", n, got, want)
			}
		})
	}
}
