package db

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/wal"
)

// gateFS is a MemVFS whose next Sync, once armed, waits for hold to return
// before syncing, and which counts the syncs it lets through.
type gateFS struct {
	*wal.MemVFS
	hold  atomic.Pointer[func()]
	syncs atomic.Int64
}

func (g *gateFS) Create(name string) (wal.File, error) {
	f, err := g.MemVFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	wal.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if hold := f.fs.hold.Swap(nil); hold != nil {
		(*hold)()
	}
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	return err
}

// queued waits until q holds n items, for at most ten seconds.
func queued(q *ApplyQueue, n int) bool {
	for deadline := time.Now().Add(10 * time.Second); q.Len() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func awaitQueued(t *testing.T, q *ApplyQueue, n int) {
	t.Helper()
	if !queued(q, n) {
		t.Fatalf("queue holds %d items, want %d", q.Len(), n)
	}
}

// TestGroupCommitSharesSync: while the first batch's sync is held, k-1 more
// TryApply callers queue up; they commit as one group. So k acknowledged
// batches cost exactly 2 WAL records, 2 syncs and 2 published epochs, and no
// caller returns before the sync that covers its batch.
func TestGroupCommitSharesSync(t *testing.T) {
	const k = 8
	fs := &gateFS{MemVFS: wal.NewMemFS()}
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	q := NewApplyQueue(d, 2*k)
	defer q.Close()

	lsn0, _ := d.WALStats()
	e := d.Epoch()
	seq0, applied0 := e.Seq, e.Applied
	e.Release()
	syncs0 := fs.syncs.Load()

	var returned atomic.Int64
	held := make(chan struct{})
	hold := func() {
		close(held)
		if !queued(q, k-1) {
			t.Errorf("queue holds %d items, want %d", q.Len(), k-1)
		}
		if n := returned.Load(); n != 0 {
			t.Errorf("%d callers returned before the first sync", n)
		}
	}
	fs.hold.Store(&hold)

	// covered[i] is the syncs seen when caller i returned.
	var covered [k]int64
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		err := q.TryApply([]Update{Insert("R", tup(int64(i), 1)), Insert("S", tup(int64(i), 10))})
		covered[i] = fs.syncs.Load() - syncs0
		returned.Add(1)
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	wg.Add(k)
	go call(0)
	<-held
	for i := 1; i < k; i++ {
		go call(i)
	}
	wg.Wait()

	lsn, _ := d.WALStats()
	e = d.Epoch()
	defer e.Release()
	if got := lsn - lsn0; got != 2 {
		t.Errorf("%d WAL records for %d batches, want 2", got, k)
	}
	if got := fs.syncs.Load() - syncs0; got != 2 {
		t.Errorf("%d syncs for %d batches, want 2", got, k)
	}
	if got := e.Seq - seq0; got != 2 {
		t.Errorf("%d epochs published for %d batches, want 2", got, k)
	}
	if got := e.Applied - applied0; got != 2 {
		t.Errorf("applied counts %d groups, want 2", got)
	}
	for i, n := range covered {
		if want := int64(min(i, 1) + 1); n < want {
			t.Errorf("caller %d returned after %d syncs, before the one that covers its batch", i, n)
		}
	}
	if got := SnapshotOf[float64](e, "sql").Result().Len(); got != k {
		t.Errorf("view holds %d groups, want %d", got, k)
	}
}

// groupMembers is a group that mixes valid and refused batches: refusal[i]
// is what member i's error names, "" for a valid member. Member 3 is refused at its second row, after a
// delete that would pass alone, and member 6 deletes that same row: it passes
// only because member 3's count was taken back. Member 4 is valid only
// because member 0 inserts the row it deletes.
func groupMembers() (members [][]Update, refusal []string) {
	return [][]Update{
			{Insert("R", tup(1, 1), tup(2, 2)), Insert("S", tup(1, 10), tup(2, 20))},
			{Insert("R", tup(1, 2, 3))},
			{Insert("Nope", tup(1))},
			{Delete("R", tup(2, 2), tup(9, 9))},
			{Delete("R", tup(1, 1))},
			{Insert("S", tup(3, 30)), Insert("R", tup(3, 3))},
			{Delete("R", tup(2, 2))},
			{Delete("S", tup(3, 30)), Delete("S", tup(3, 30))},
		},
		[]string{"", "does not match schema", `unknown relation "Nope"`, `"R" row (9,9)`, "", "", "", `"S" row (3,30)`}
}

// TestGroupCommitMixedMembers: members queued behind a Do commit as one
// group; each gets its own answer, and the store and the view equal those of
// applying the valid members one by one.
func TestGroupCommitMixedMembers(t *testing.T) {
	members, refusal := groupMembers()
	open := func() *DB {
		d, err := Open(testCatalog(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	oracle := open()
	defer oracle.Close()
	for i, m := range members {
		if err := oracle.Apply(m); !refused(err, refusal[i]) {
			t.Fatalf("member %d alone: %v, want refusal %q", i, err, refusal[i])
		}
	}

	d := open()
	defer d.Close()
	q := NewApplyQueue(d, len(members))
	defer q.Close()
	release, blocked := holdQueue(q)
	errs := make([]chan error, len(members))
	for i, m := range members {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- q.TryApply(m) }()
		awaitQueued(t, q, i+1) // keep the members in order
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	for i := range members {
		if err := <-errs[i]; !refused(err, refusal[i]) {
			t.Errorf("member %d: %v, want refusal %q", i, err, refusal[i])
		}
	}
	if got, want := d.Epoch().Applied, uint64(1); got != want {
		t.Errorf("applied %d, want the group to count as %d", got, want)
	}
	if got, want := viewFP(t, d, "sql"), viewFP(t, oracle, "sql"); got != want {
		t.Errorf("view after the group:\n got  %s\n want %s", got, want)
	}
	if got, want := baseFP(d), baseFP(oracle); got != want {
		t.Errorf("store after the group:\n got  %s\n want %s", got, want)
	}
}

// refused reports whether err is nil for want "" and otherwise names want.
func refused(err error, want string) bool {
	if want == "" {
		return err == nil
	}
	return err != nil && strings.Contains(err.Error(), want)
}

// holdQueue stalls q's maintenance goroutine in a Do until release is
// closed; blocked gets the Do's answer.
func holdQueue(q *ApplyQueue) (release chan struct{}, blocked chan error) {
	release, blocked = make(chan struct{}), make(chan error, 1)
	started := make(chan struct{})
	go func() {
		blocked <- q.Do(func(*DB) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	return release, blocked
}

// baseFP renders every base relation of d.
func baseFP(d *DB) string {
	var b strings.Builder
	for _, rel := range d.Relations() {
		b.WriteString(rel + ":" + fpEntries(d.Base(rel).SortedEntries()) + "|")
	}
	return b.String()
}

// A Do item ends a group: batches queued after it commit after it runs.
func TestGroupEndsAtDo(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := NewApplyQueue(d, 8)
	defer q.Close()
	release, blocked := holdQueue(q)
	var rows []int
	done := make(chan error, 3)
	go func() { done <- q.TryApply([]Update{Insert("R", tup(1, 1))}) }()
	awaitQueued(t, q, 1)
	go func() {
		done <- q.Do(func(d *DB) error { rows = append(rows, d.Base("R").Len()); return nil })
	}()
	awaitQueued(t, q, 2)
	go func() { done <- q.TryApply([]Update{Insert("R", tup(2, 2))}) }()
	awaitQueued(t, q, 3)
	close(release)
	for range 3 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-blocked
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("the Do saw %v rows, want the one batch queued before it", rows)
	}
	if got := d.Epoch().Applied; got != 2 {
		t.Fatalf("applied %d, want 2 groups", got)
	}
	if got := d.Base("R").Len(); got != 2 {
		t.Fatalf("R holds %d rows", got)
	}
}

// TestAllocGuardGroup: committing four members as a group allocates no more
// than applying their updates as one batch — the group's bookkeeping is
// scratch the DB keeps, nothing per member.
func TestAllocGuardGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dashboard(t, d)
	var groups [2][][]Update
	var unions [2][]Update
	for i := range int64(4) {
		ins := []Update{Insert("R", tup(i, 1), tup(i, 2)), Insert("S", tup(i, 3))}
		del := []Update{Delete("R", tup(i, 1), tup(i, 2)), Delete("S", tup(i, 3))}
		groups[0], groups[1] = append(groups[0], ins), append(groups[1], del)
		unions[0], unions[1] = append(unions[0], ins...), append(unions[1], del...)
	}
	errs := make([]error, 4)
	i := 0
	group := func() {
		d.applyGroup(groups[i%2], errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	union := func() {
		if err := d.Apply(unions[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 200 {
		group()
		union()
	}
	want := testing.AllocsPerRun(400, union)
	if got := testing.AllocsPerRun(400, group); got > want {
		t.Errorf("a group of 4 allocates %.2f objects, its updates as one batch %.2f", got, want)
	}
}

// A batch that would take a group's record past the queue's byte bound
// starts the next group: the members' sizes sum past the bound, so three
// batches make two records, both of which recovery reads back.
func TestGroupCapsRecordBytes(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	rows := func(from, n int) []Update {
		ts := make([]data.Tuple, n)
		for i := range ts {
			ts[i] = tup(int64(from+i), 0)
		}
		return []Update{Insert("R", ts...)}
	}
	batches := [][]Update{rows(0, 30), rows(100, 20), rows(200, 5)}
	q := NewApplyQueue(d, 8)
	q.maxBytes = wal.BatchBytes(batches[1]) + wal.BatchBytes(batches[2]) // not the first two
	release, blocked := holdQueue(q)
	done := make(chan error, len(batches))
	for i, b := range batches {
		go func() { done <- q.TryApply(b) }()
		awaitQueued(t, q, i+1)
	}
	close(release)
	<-blocked
	for range batches {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if lsn, _ := d.WALStats(); lsn != 2 || d.Epoch().Applied != 2 {
		t.Fatalf("%d records, %d applied; want 2 groups: the first batch alone, then the other two", lsn, d.Epoch().Applied)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(testCatalog(), Options{Durability: durOpts(fs)}); err != nil {
		t.Fatal(err)
	}
	if got := d.Base("R").Len(); got != 55 {
		t.Fatalf("R holds %d rows after recovery, want 55", got)
	}
}

// BenchmarkConcurrentDurableApply: eight writers apply two-tuple batches
// through the queue to a DB that logs to files under b.TempDir with
// wal.FsyncAlways. It reports WAL records — one sync each under that policy —
// per acknowledged batch, and batches per second. Reported, never gated.
func BenchmarkConcurrentDurableApply(b *testing.B) {
	d, err := Open(testCatalog(), Options{Durability: &DurabilityOptions{Dir: b.TempDir(), Fsync: wal.FsyncAlways}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "sql", durSQL, ViewOptions{}); err != nil {
		b.Fatal(err)
	}
	q := NewApplyQueue(d, 64)
	defer q.Close()
	lsn0, _ := d.WALStats()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := q.Apply([]Update{Insert("R", tup(i, 1)), Insert("S", tup(i, 10))}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	lsn, _ := d.WALStats()
	b.ReportMetric(float64(lsn-lsn0)/float64(b.N), "records/batch")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "batches/s")
}
