package db

import (
	"math/rand"
	"sort"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
	"fivm/internal/wal"
)

// Crash-recovery equivalence property: for a random update stream with
// deletes, maintained across {Int, Cofactor} rings (plus a persisted SQL
// view), crash the filesystem at every WAL record boundary — and mid-record
// — recover, and require the recovered DB's published epoch to be
// byte-identical to an uninterrupted oracle run at the same batch prefix.
// With fsync=always, "the same batch prefix" is pinned down exactly: every
// acknowledged batch survives, the unacknowledged one never partially
// applies.

const crashSegCap = int64(1) << 40 // one segment: boundaries are file offsets

func crashDurOpts(fs wal.VFS) *DurabilityOptions {
	return &DurabilityOptions{Dir: "wal", FS: fs, Fsync: wal.FsyncAlways, SegmentBytes: crashSegCap}
}

// driveCrashScenario runs the full scenario against fs, stopping at the
// first error (the injected crash). It returns how many batches were
// acknowledged (Apply returned nil).
func driveCrashScenario(fs wal.VFS, batches [][]Update) int {
	d, err := Open(testCatalog(), Options{Durability: crashDurOpts(fs)})
	if err != nil {
		return 0
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
		return 0
	}
	if !crashCreateTypedViews(d) {
		return 0
	}
	n := 0
	for _, b := range batches {
		if err := d.Apply(b); err != nil {
			return n
		}
		n++
	}
	return n
}

// crashCreateTypedViews registers the Int and Cofactor typed views. These
// are NOT persisted (code-defined lifts); after recovery the test re-creates
// them, relying on backfill equivalence for byte-identity.
func crashCreateTypedViews(d *DB) bool {
	if _, err := CreateView[int64](d, "cnt", testQuery("cnt", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		return false
	}
	if _, err := CreateView[ring.Triple](d, "cof", testQuery("cof"), ring.Cofactor{}, propCofLift, ViewOptions{}); err != nil {
		return false
	}
	return true
}

// epochFP fingerprints the three views' published contents at the DB's
// current epoch.
func epochFP(t *testing.T, d *DB) string {
	t.Helper()
	e := d.Epoch()
	sSQL := SnapshotOf[float64](e, "sql")
	sCnt := SnapshotOf[int64](e, "cnt")
	sCof := SnapshotOf[ring.Triple](e, "cof")
	if sSQL == nil || sCnt == nil || sCof == nil {
		t.Fatal("missing view snapshot in epoch")
	}
	return "sql:" + fpEntries(sSQL.Result().SortedEntries()) +
		"|cnt:" + fpEntries(sCnt.Result().SortedEntries()) +
		"|cof:" + fpEntries(sCof.Result().SortedEntries())
}

func TestCrashRecoveryEveryRecordBoundary(t *testing.T) {
	// Deterministic random stream mixing inserts and deletes over R, S, T.
	rng := rand.New(rand.NewSource(7))
	live := map[string][]data.Tuple{}
	const nBatches = 10
	batches := make([][]Update, nBatches)
	for i := range batches {
		batches[i] = randomUpdates(rng, live)
	}

	// Oracle: uninterrupted in-memory runs, fingerprinted at every prefix.
	oracleFP := make([]string, nBatches+1)
	{
		d, err := Open(testCatalog(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
			t.Fatal(err)
		}
		if !crashCreateTypedViews(d) {
			t.Fatal("oracle view creation failed")
		}
		oracleFP[0] = epochFP(t, d)
		for i, b := range batches {
			if err := d.Apply(b); err != nil {
				t.Fatal(err)
			}
			oracleFP[i+1] = epochFP(t, d)
		}
	}

	// Reference run on a clean MemVFS to learn the exact on-disk record
	// boundaries (the write sequence is deterministic, so byte budgets in
	// the crash runs line up with these offsets).
	ref := wal.NewMemFS()
	if got := driveCrashScenario(ref, batches); got != nBatches {
		t.Fatalf("reference run acknowledged %d/%d batches", got, nBatches)
	}
	segBytes, err := ref.ReadFile("wal/wal-00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	bounds := wal.RecordBoundaries(segBytes)
	// 1 create-view record + nBatches batch records.
	if len(bounds) != nBatches+1 {
		t.Fatalf("reference segment has %d records, want %d", len(bounds), nBatches+1)
	}

	// Crash points: every record boundary exactly, a few bytes short of it
	// (mid-record tear), and a few bytes past it (mid-header of the next).
	pts := map[int64]bool{0: true, 5: true}
	for _, b := range bounds {
		pts[b] = true
		pts[b-3] = true
		pts[b+4] = true
	}
	var crashPoints []int64
	for p := range pts {
		if p >= 0 {
			crashPoints = append(crashPoints, p)
		}
	}
	sort.Slice(crashPoints, func(i, j int) bool { return crashPoints[i] < crashPoints[j] })

	for _, cut := range crashPoints {
		mem := wal.NewMemFS()
		ffs := wal.NewFaultFS(mem)
		ffs.CrashAfterBytes(cut)
		acked := driveCrashScenario(ffs, batches)
		mem.Crash() // power cut: only synced bytes survive

		d2, err := Open(testCatalog(), Options{Durability: crashDurOpts(mem)})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}

		// No acknowledged batch lost, no unacknowledged batch applied.
		if got := d2.Applied(); got != uint64(acked) {
			t.Fatalf("cut %d: recovered applied=%d, acknowledged=%d", cut, got, acked)
		}

		// Re-create whatever did not survive: the SQL view if its DDL
		// record was cut, and the typed views always (not persisted).
		if !d2.HasView("sql") {
			if _, err := CreateViewSQL(d2, "sql", durSQL, ViewOptions{}); err != nil {
				t.Fatalf("cut %d: re-create sql view: %v", cut, err)
			}
		}
		if !crashCreateTypedViews(d2) {
			t.Fatalf("cut %d: re-create typed views failed", cut)
		}

		if got, want := epochFP(t, d2), oracleFP[acked]; got != want {
			t.Fatalf("cut %d: recovered epoch diverges from oracle at prefix %d:\n got  %s\n want %s",
				cut, acked, got, want)
		}
		d2.Close()
	}
}

// TestCrashEveryByteOfAGroup cuts the power at every byte of a group's WAL
// record. After recovery every batch acknowledged with nil is present, a
// refused member never is, and an unacknowledged group is wholly present or
// wholly absent: its members share one record.
func TestCrashEveryByteOfAGroup(t *testing.T) {
	prefix := durBatches()[:3]
	members, refusal := groupMembers()
	drive := func(fs wal.VFS) (acked int, errs []error) {
		errs = make([]error, len(members))
		d, err := Open(testCatalog(), Options{Durability: crashDurOpts(fs)})
		if err != nil {
			return 0, nil
		}
		defer d.Close()
		if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
			return 0, nil
		}
		for _, b := range prefix {
			if err := d.Apply(b); err != nil {
				return acked, nil
			}
			acked++
		}
		d.applyGroup(members, errs)
		return acked, errs
	}
	state := func(d *DB) string { return viewFP(t, d, "sql") + "|" + baseFP(d) }

	// The states before and after the group: the prefix, then the valid
	// members one by one.
	oracle, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := CreateViewSQL(oracle, "sql", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	applyN(t, oracle, prefix)
	before := state(oracle)
	for i, m := range members {
		if refusal[i] == "" {
			if err := oracle.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := state(oracle)

	ref := wal.NewMemFS()
	if acked, errs := drive(ref); acked != len(prefix) || errs == nil {
		t.Fatalf("reference run acknowledged %d of %d batches", acked, len(prefix))
	}
	seg, err := ref.ReadFile("wal/wal-00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	bounds := wal.RecordBoundaries(seg)
	// 1 create-view record, the prefix's records, and one for the group.
	if len(bounds) != len(prefix)+2 {
		t.Fatalf("reference segment has %d records, want %d", len(bounds), len(prefix)+2)
	}
	start, end := bounds[len(bounds)-2], bounds[len(bounds)-1]

	for cut := start; cut <= end; cut++ {
		mem := wal.NewMemFS()
		ffs := wal.NewFaultFS(mem)
		ffs.CrashAfterBytes(cut)
		acked, errs := drive(ffs)
		mem.Crash()
		if acked != len(prefix) || errs == nil {
			t.Fatalf("cut %d: the prefix before the group's record was not acknowledged", cut)
		}
		d, err := Open(testCatalog(), Options{Durability: crashDurOpts(mem)})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		got, applied := state(d), d.Applied()
		d.Close()
		present := applied == uint64(len(prefix)+1)
		ackedAll := true
		for i, err := range errs {
			if refusal[i] == "" && err != nil {
				ackedAll = false
			} else if refusal[i] != "" && !refused(err, refusal[i]) {
				t.Fatalf("cut %d: member %d answered %v, want refusal %q", cut, i, err, refusal[i])
			}
		}
		switch {
		case ackedAll && (!present || got != after):
			t.Fatalf("cut %d: the group was acknowledged, recovery holds applied %d:\n got  %s\n want %s", cut, applied, got, after)
		case present && got != after, !present && (got != before || applied != uint64(len(prefix))):
			t.Fatalf("cut %d: the group is torn (present %v):\n got    %s\n before %s\n after  %s", cut, present, got, before, after)
		}
	}
}
