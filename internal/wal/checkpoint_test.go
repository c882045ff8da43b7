package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fivm/internal/data"
)

// encodeCheckpointRef is the checkpoint encoder as it stood before
// WriteCheckpoint streamed: the whole file built in one buffer, the CRC taken
// over it at the end. Kept as the reference the streamed writer is pinned
// against, byte for byte.
func encodeCheckpointRef(ck *Checkpoint) []byte {
	b := make([]byte, 0, 4096)
	var hdr [ckptHdrLen]byte
	copy(hdr[:8], ckptMagic)
	hdr[8] = segVersion
	b = append(b, hdr[:]...)
	b = binary.AppendUvarint(b, ck.LSN)
	b = binary.AppendUvarint(b, ck.Applied)
	b = binary.AppendUvarint(b, ck.Seq)
	b = binary.AppendUvarint(b, uint64(len(ck.Views)))
	for _, def := range ck.Views {
		b = appendFrame(b, encodeCreateViewBody(nil, 0, def))
	}
	b = binary.AppendUvarint(b, uint64(len(ck.Bases)))
	for _, t := range ck.Bases {
		b = appendString(b, t.Rel)
		b = binary.AppendUvarint(b, uint64(len(t.Schema)))
		for _, attr := range t.Schema {
			b = appendString(b, attr)
		}
		b = binary.AppendUvarint(b, uint64(t.Len))
		for row, mult := range t.All {
			b = binary.AppendVarint(b, mult)
			for _, v := range row {
				b = data.AppendValue(b, v)
			}
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(b, castagnoli))
	return append(b, crc[:]...)
}

// table is a BaseTable over rows a test holds in slices.
func table(rel string, schema data.Schema, rows []data.Tuple, mults []int64) BaseTable {
	return BaseTable{Rel: rel, Schema: schema, Len: len(rows), All: func(yield func(data.Tuple, int64) bool) {
		for i, row := range rows {
			if !yield(row, mults[i]) {
				return
			}
		}
	}}
}

// fixtureCheckpoint is the state TestCheckpointRoundTripAndPruning writes,
// with base R widened to n rows so a lowered flush limit cuts it into many
// writes.
func fixtureCheckpoint(applied uint64, n int) *Checkpoint {
	var rows []data.Tuple
	var mults []int64
	for i := 0; i < n; i++ {
		rows = append(rows, data.Ints(int64(i), int64(applied)))
		mults = append(mults, int64(i%3)-5)
	}
	return &Checkpoint{
		Applied: applied,
		Seq:     3 * applied,
		Views: []ViewDef{
			{Name: "v1", SQL: "SELECT A, SUM(B) FROM R GROUP BY A", ComposeChains: true},
			{Name: "v2", SQL: "SELECT SUM(B) FROM R", CostMaterialize: true},
		},
		Bases: []BaseTable{
			table("R", data.NewSchema("A", "B"), rows, mults),
			table("S", data.NewSchema("A", "C"), []data.Tuple{{data.Int(1), data.String("x")}}, []int64{1}),
		},
	}
}

// TestStreamedCheckpointIsByteIdentical pins the streamed file against the
// buffered encoder's output for the same state, in one write or in many.
func TestStreamedCheckpointIsByteIdentical(t *testing.T) {
	for _, rows := range []int{2, 500} {
		for _, flush := range []int{ckptFlushBytes, 64} {
			fs := NewMemFS()
			l, _ := openMem(t, fs, FsyncNever)
			l.ckptFlush = flush
			for i := int64(1); i <= 3; i++ {
				l.AppendBatch(uint64(i), testBatch(i))
			}
			ck := fixtureCheckpoint(3, rows)
			if err := l.WriteCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			got, err := fs.ReadFile("wal/" + ckptFileName(ck.LSN))
			if err != nil {
				t.Fatal(err)
			}
			want := encodeCheckpointRef(ck)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d rows, flush at %d: streamed file (%d bytes) differs from the reference (%d bytes)",
					rows, flush, len(got), len(want))
			}
			st := l.LastCheckpoint()
			if st.LSN != 3 || st.Rows != rows+1 || st.Bytes != int64(len(want)) || st.Writes < 1 || (flush == 64 && st.Writes < rows/8) {
				t.Errorf("LastCheckpoint %+v for a file of %d bytes, %d rows", st, len(want), rows+1)
			}
			l.Close()
		}
	}
	// A table that yields fewer rows than it announced is refused before
	// anything is published.
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	defer l.Close()
	short := fixtureCheckpoint(1, 10)
	short.Bases[0].Len++
	if err := l.WriteCheckpoint(short); err == nil {
		t.Fatal("WriteCheckpoint accepted a table shorter than announced")
	}
	if _, ck, _ := LatestCheckpointBytes(fs, "wal"); ck != nil {
		t.Fatalf("a refused checkpoint was published: %+v", ck)
	}
}

// TestCheckpointTornAtEveryByte: a checkpoint is written in several Write
// calls, so a crash can leave any prefix of ckpt.tmp behind. Whatever byte
// the power cut lands on — inside the temp file or in the segment header
// that follows its publication — recovery must find either the previous
// checkpoint with its tail or the new one whole, and the new one whenever
// WriteCheckpoint reported success.
func TestCheckpointTornAtEveryByte(t *testing.T) {
	ck1, ck2 := fixtureCheckpoint(2, 3), fixtureCheckpoint(3, 40)
	run := func(cut int64) (*MemVFS, error) {
		mem := NewMemFS()
		ffs := NewFaultFS(mem)
		l, _, err := Open(Options{Dir: "wal", FS: ffs, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		l.ckptFlush = 48
		for i := int64(1); i <= 2; i++ {
			if err := l.AppendBatch(uint64(i), testBatch(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteCheckpoint(ck1); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch(3, testBatch(3)); err != nil {
			t.Fatal(err)
		}
		if cut >= 0 {
			ffs.CrashAfterBytes(cut)
		}
		err = l.WriteCheckpoint(ck2)
		if l.LastCheckpoint().Writes < 5 && err == nil {
			t.Fatalf("the second checkpoint took %d writes: nothing to tear", l.LastCheckpoint().Writes)
		}
		l.Close()
		mem.Crash()
		return mem, err
	}
	ref, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.FileSize("wal/"+ckptFileName(3)) + segHdrLen
	for cut := int64(0); cut <= total; cut++ {
		mem, werr := run(cut)
		l, rec, err := Open(Options{Dir: "wal", FS: mem, Fsync: FsyncAlways})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		l.Close()
		got := rec.Checkpoint
		if got == nil {
			t.Fatalf("cut %d: no checkpoint recovered", cut)
		}
		want := ck1
		if got.Applied == 3 {
			want = ck2
		} else if werr == nil {
			t.Fatalf("cut %d: WriteCheckpoint succeeded and recovery found applied=%d", cut, got.Applied)
		}
		want.LSN = want.Applied
		if !bytes.Equal(encodeCheckpointRef(got), encodeCheckpointRef(want)) {
			t.Fatalf("cut %d: recovered checkpoint %+v, want %+v", cut, got, want)
		}
		if tail := len(rec.Records); tail != int(3-got.Applied) {
			t.Fatalf("cut %d: checkpoint applied=%d with a tail of %d records", cut, got.Applied, tail)
		}
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes — as they come, and again with a
// valid checksum sealed over them, which is what gets a mutation past the
// first check and into the decoder — decode to an error or to a checkpoint
// that survives re-encoding byte for byte (a decoded table is a sequence over
// the file bytes, so it is compared by what it encodes to): never a panic,
// and never more rows than the input has bytes for (the caps that keep a
// hostile count from sizing an allocation). Every decoded table restores into
// a fresh store as exactly its rows or as an error, never a panic.
func FuzzDecodeCheckpoint(f *testing.F) {
	real := encodeCheckpointRef(fixtureCheckpoint(7, 20))
	f.Add(real)
	f.Add(real[:len(real)-4]) // sealed again by the target: the decoder's own input
	f.Add(real[:len(real)/2])
	f.Add(real[:ckptHdrLen+4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), b...), crc32.Checksum(b, castagnoli))
		for _, in := range [][]byte{b, sealed} {
			ck, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			rows := 0
			for _, tab := range ck.Bases {
				rows += tab.Len
			}
			if rows > len(in) || len(ck.Views) > len(in) || len(ck.Bases) > len(in) {
				t.Fatalf("%d bytes decoded to %d rows, %d views, %d tables", len(in), rows, len(ck.Views), len(ck.Bases))
			}
			enc := encodeCheckpointRef(ck)
			again, err := decodeCheckpoint(enc)
			if err != nil || !bytes.Equal(encodeCheckpointRef(again), enc) {
				t.Fatalf("decoded checkpoint does not survive re-encoding: %v", err)
			}
			for _, tab := range ck.Bases {
				store := data.NewBaseStore()
				if err := store.Register(tab.Rel, tab.Schema); err != nil {
					t.Fatal(err)
				}
				if err := store.Restore(tab.Rel, tab.Schema, tab.Len, tab.All); err == nil && store.Base(tab.Rel).Len() != tab.Len {
					t.Fatalf("table %q of %d rows restored as %d", tab.Rel, tab.Len, store.Base(tab.Rel).Len())
				}
			}
		}
	})
}

// TestDecodeCheckpointCapsCounts: counts no input of that size could back are
// refused before they size an allocation.
func TestDecodeCheckpointCapsCounts(t *testing.T) {
	seal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	}
	hdr := func() []byte {
		var h [ckptHdrLen]byte
		copy(h[:8], ckptMagic)
		h[8] = segVersion
		b := append([]byte(nil), h[:]...)
		for i := 0; i < 4; i++ { // LSN, applied, seq, no views
			b = binary.AppendUvarint(b, 0)
		}
		return appendString(binary.AppendUvarint(b, 1), "R") // one table, R
	}
	wide := binary.AppendUvarint(hdr(), 1<<15) // an arity the remaining bytes cannot name
	if _, err := decodeCheckpoint(seal(wide)); err == nil {
		t.Error("an arity of 32768 over an empty body decoded")
	}
	long := binary.AppendUvarint(appendString(binary.AppendUvarint(hdr(), 1), "A"), 1000) // 1000 rows, no bytes
	if _, err := decodeCheckpoint(seal(long)); err == nil {
		t.Error("1000 rows over an empty body decoded")
	}
}

// TestAllocGuardCheckpoint: once the log's buffer has its size, writing a
// checkpoint allocates a few file names and a closure or two — under 4 KiB,
// whether the state has five thousand rows or fifty thousand. TotalAlloc is
// process-wide and a write goes through os.ReadDir, whose 8 KiB dirent buffer
// sits in a sync.Pool that a collection may empty at any moment, so one
// window can read 8 KiB high; noise only adds, hence the minimum of five
// writes after the warm-up one.
func TestAllocGuardCheckpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	for _, n := range []int{5_000, 50_000} {
		rows := make([]data.Tuple, n)
		for i := range rows {
			rows[i] = data.Tuple{data.Int(int64(i)), data.Float(float64(i) / 2), data.String("row")}
		}
		var all iter.Seq2[data.Tuple, int64] = func(yield func(data.Tuple, int64) bool) {
			for _, row := range rows {
				if !yield(row, 1) {
					return
				}
			}
		}
		l, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		ck := &Checkpoint{Applied: 1, Bases: []BaseTable{{Rel: "R", Schema: data.NewSchema("A", "B", "C"), Len: n, All: all}}}
		write := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := l.WriteCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		first, second := write(), write()
		for range 4 {
			second = min(second, write())
		}
		t.Logf("%d rows, %d bytes: first checkpoint allocated %d bytes, the least of five more %d", n, l.LastCheckpoint().Bytes, first, second)
		if second >= 4<<10 {
			t.Errorf("%d rows: a second checkpoint allocated %d bytes, want < 4096", n, second)
		}
		// The streaming buffer is bought once, at its size, not by doubling up to it.
		if n == 50_000 && first >= 2*ckptFlushBytes {
			t.Errorf("the first checkpoint allocated %d bytes, want under twice the %d-byte buffer", first, ckptFlushBytes)
		}

		// A checkpoint of a grown store, from the live relation (BaseStore.Rows):
		// the row scratch is bought with room, so a store a tenth larger than at
		// the last checkpoint, and larger again, costs no new one — 8 bytes a
		// row, 240 KB and more here. A grown store cannot be checkpointed five
		// times for the least reading, so the bound leaves the package's other
		// goroutines their ten-odd KB.
		if n >= 50_000 {
			store := data.NewBaseStore()
			if err := store.Register("R", data.NewSchema("A", "B", "C")); err != nil {
				t.Fatal(err)
			}
			insert := func(rows []data.Tuple) {
				if err := store.ApplyBatch([]data.BaseUpdate{{Rel: "R", Tuples: rows, Mult: 1}}); err != nil {
					t.Fatal(err)
				}
				ck.Bases[0].Len, ck.Bases[0].All = store.Base("R").Len(), store.Rows("R")
			}
			insert(rows[:n/2])
			write()
			insert(rows[n/2 : n/2+n/20]) // the first checkpoint sized the scratch exactly: this one doubles it
			write()
			for _, part := range [][]data.Tuple{rows[n/2+n/20 : n/2+n/10], rows[n/2+n/10 : n/2+n/5], rows[n/2+n/5 : n]} {
				insert(part)
				if grown := write(); grown >= 32<<10 {
					t.Errorf("a checkpoint of a store grown to %d rows allocated %d bytes, want < 32 KiB", store.Base("R").Len(), grown)
				}
			}
		}
		l.Close()
	}
}

// storeCheckpoint writes every relation of store as a checkpoint, the way
// the DB does (BaseStore.Rows), into a fresh log and returns the file.
func storeCheckpoint(t *testing.T, store *data.BaseStore) []byte {
	t.Helper()
	fs := NewMemFS()
	l, _ := openMem(t, fs, FsyncNever)
	defer l.Close()
	ck := &Checkpoint{Applied: 1}
	for _, rel := range store.Relations() {
		sch, _ := store.Schema(rel)
		ck.Bases = append(ck.Bases, BaseTable{Rel: rel, Schema: sch, Len: store.Base(rel).Len(), All: store.Rows(rel)})
	}
	if err := l.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile("wal/" + ckptFileName(ck.LSN))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointRestoreRoundTrip: a checkpoint restored into a fresh store
// and checkpointed again is the same file, byte for byte — over random
// stores of zero to three relations, empty ones included, with int, float
// and string columns and negative multiplicities.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := func(kind int) data.Value {
		switch kind {
		case 0:
			return data.Int(rng.Int63n(200) - 100)
		case 1:
			return data.Float(rng.NormFloat64() * 1e3)
		default:
			return data.String(strings.Repeat("s", rng.Intn(4)) + fmt.Sprint(rng.Intn(50)))
		}
	}
	for trial := range 40 {
		store := data.NewBaseStore()
		for r := range rng.Intn(4) {
			kinds := make([]int, 1+rng.Intn(3))
			attrs := make([]string, len(kinds))
			for i := range kinds {
				kinds[i], attrs[i] = rng.Intn(3), fmt.Sprint("A", i)
			}
			rel := fmt.Sprint("R", r)
			if err := store.Register(rel, data.NewSchema(attrs...)); err != nil {
				t.Fatal(err)
			}
			for range rng.Intn(4) { // zero batches leave the relation empty
				rows := make([]data.Tuple, rng.Intn(300))
				for i := range rows {
					rows[i] = make(data.Tuple, len(kinds))
					for j, k := range kinds {
						rows[i][j] = value(k)
					}
				}
				if err := store.ApplyBatch([]data.BaseUpdate{{Rel: rel, Tuples: rows, Mult: rng.Int63n(7) - 3}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		first := storeCheckpoint(t, store)
		ck, err := decodeCheckpoint(first)
		if err != nil {
			t.Fatal(err)
		}
		again := data.NewBaseStore()
		for _, tab := range ck.Bases {
			if err := again.Register(tab.Rel, tab.Schema); err != nil {
				t.Fatal(err)
			}
			if err := again.Restore(tab.Rel, tab.Schema, tab.Len, tab.All); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if second := storeCheckpoint(t, again); !bytes.Equal(first, second) {
			t.Fatalf("trial %d: the restored store checkpoints to %d bytes that differ from the %d it was restored from", trial, len(second), len(first))
		}
	}
}

// TestCheckpointWriterFailureKeepsStore: a checkpoint whose file fails
// mid-stream stops ranging over the store's rows, and the store's table,
// which Rows sorted in place, is whole again: every row found, and inserts
// and deletes applied after.
func TestCheckpointWriterFailureKeepsStore(t *testing.T) {
	store := data.NewBaseStore()
	if err := store.Register("R", data.NewSchema("A", "B")); err != nil {
		t.Fatal(err)
	}
	rows := make([]data.Tuple, 5000)
	for i := range rows {
		rows[i] = data.Tuple{data.Int(int64(i)), data.String(fmt.Sprint(i % 7))}
	}
	if err := store.ApplyBatch([]data.BaseUpdate{{Rel: "R", Tuples: rows, Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(NewMemFS())
	l, _, err := Open(Options{Dir: "wal", FS: ffs, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.ckptFlush = 256
	ffs.CrashAfterBytes(4096)
	ck := &Checkpoint{Bases: []BaseTable{{Rel: "R", Schema: data.NewSchema("A", "B"), Len: 5000, All: store.Rows("R")}}}
	if err := l.WriteCheckpoint(ck); !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteCheckpoint over a crashing file: %v", err)
	}
	base := store.Base("R")
	for _, r := range rows {
		if m, ok := base.Get(r); !ok || m != 1 {
			t.Fatalf("row %v: %d (found %v) after the failed checkpoint", r, m, ok)
		}
	}
	if err := store.ApplyBatch([]data.BaseUpdate{{Rel: "R", Tuples: rows[:100], Mult: -1}, {Rel: "R", Tuples: []data.Tuple{data.Ints(9999, 1)}, Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	has := func(t data.Tuple) bool { _, ok := base.Get(t); return ok }
	if base.Len() != 4901 || has(rows[0]) || !has(data.Ints(9999, 1)) || !has(rows[100]) {
		t.Fatalf("after deletes and an insert the store holds %d rows", base.Len())
	}
}
