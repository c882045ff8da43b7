package wal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fivm/internal/data"
)

// batchFrame frames a batch record the way AppendBatch does.
func batchFrame(lsn, applied uint64, batch []data.BaseUpdate) []byte {
	return appendFrame(nil, encodeBatchBody(nil, lsn, applied, batch))
}

// hostileUpdate is the body of a batch record whose one update claims the
// given shape, followed by pad bytes of payload.
func hostileUpdate(arity, nTup uint64, pad int) []byte {
	b := []byte{recBatch}
	b = binary.AppendUvarint(b, 1) // lsn
	b = binary.AppendUvarint(b, 1) // applied
	b = binary.AppendUvarint(b, 1) // one update
	b = appendString(b, "R")
	b = binary.AppendVarint(b, 1)
	b = binary.AppendUvarint(b, arity)
	b = binary.AppendUvarint(b, nTup)
	return append(b, make([]byte, pad)...)
}

// TestDecodeRecordCapsCounts: a frame from the network cannot make the
// decoder allocate on its say-so. Update and tuple counts and the arity are
// bounded by the bytes that remain before anything is sized by them, an
// update without tuples declares no arity (and one with tuples some), the
// encoder refuses a batch whose tuples disagree with the arity their update
// declares — and the tightest legal record still decodes.
func TestDecodeRecordCapsCounts(t *testing.T) {
	manyUpdates := []byte{recBatch}
	manyUpdates = binary.AppendUvarint(manyUpdates, 1)
	manyUpdates = binary.AppendUvarint(manyUpdates, 1)
	manyUpdates = binary.AppendUvarint(manyUpdates, 1<<20)
	manyUpdates = append(manyUpdates, make([]byte, 1<<20)...) // 1 MiB cannot hold 1 Mi updates of 4 bytes
	multZero := hostileUpdate(0, 0, 0)
	multZero[6] = 0 // the varint after the relation name
	for name, body := range map[string][]byte{
		"a multiplicity the encoder never writes": multZero,
		"update count beyond the bytes left":      manyUpdates,
		"tuple count beyond the bytes left":       hostileUpdate(4, 1<<20/8+1, 1<<20),
		"arity beyond the bytes left":             hostileUpdate(1<<16, 1, 1<<16),
		"arity over the limit":                    hostileUpdate(1<<16+1, 1, 1<<20),
		"tuples of no arity":                      hostileUpdate(0, 1<<10, 1<<20),
		"an arity declared for no tuples":         hostileUpdate(3, 0, 0),
		"a tuple count with nothing behind it":    hostileUpdate(1, 1, 0),
		"a count that overflows int":              hostileUpdate(1, 1<<63, 64),
		"an update count that overflows int":      append([]byte{recBatch, 1, 1}, binary.AppendUvarint(nil, 1<<63)...),
		"a claimed gigabyte of two-byte values":   hostileUpdate(1<<16, 1<<13, 1<<20),
	} {
		var arena data.BatchArena
		for _, a := range []*data.BatchArena{nil, &arena} {
			var before, after runtime.MemStats
			frame := appendFrame(nil, body)
			runtime.ReadMemStats(&before)
			_, _, err := decodeRecord(frame, a)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: decoded", name)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 { // the claims are for megabytes
				t.Errorf("%s: rejected after allocating %d bytes", name, got)
			}
		}
	}

	// The caps are not too tight: empty strings are the two-byte values the
	// bound assumes, and a record of nothing else decodes.
	tight := make([]data.Tuple, 50)
	for i := range tight {
		tight[i] = data.Tuple{data.String(""), data.String(""), data.String("")}
	}
	batch := []data.BaseUpdate{{Rel: "", Mult: 1}, {Rel: "R", Tuples: tight, Mult: -1}}
	rec, n, err := decodeRecord(batchFrame(7, 3, batch), nil)
	if err != nil || n != len(batchFrame(7, 3, batch)) || !reflect.DeepEqual(rec.Batch[1].Tuples, tight) || len(rec.Batch[0].Tuples) != 0 {
		t.Fatalf("tightest legal record: %v, %+v", err, rec)
	}

	// The encoder declares an update's arity once, from its first tuple.
	l, _, err := Open(Options{Dir: "w", FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, bad := range [][]data.Tuple{{data.Ints(1, 2), data.Ints(3)}, {{}, {}}} {
		err := l.AppendBatch(1, []data.BaseUpdate{{Rel: "R", Tuples: bad, Mult: 1}})
		if err == nil || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("batch of %v appended: %v", bad, err)
		}
	}
	if l.LSN() != 0 {
		t.Fatalf("a refused batch advanced the LSN to %d", l.LSN())
	}
	if err := l.AppendBatch(1, streamBatch(1)); err != nil || l.LSN() != 1 {
		t.Fatalf("the log refuses appends after refusing a batch: %v (lsn %d)", err, l.LSN())
	}
}

// FuzzDecodeRecord: for any bytes — as they are, and framed with a valid
// length and checksum, which is what gets a mutation into the decoder — the
// arena decode and the heap decode agree on error or not, on the bytes
// consumed and, through encodeBatchBody, byte for byte on the record; the
// re-encoding decodes to the same record and is its own re-encoding; nothing
// decoded is larger than its input could back; and rewinding the arena leaves
// the heap record alone.
func FuzzDecodeRecord(f *testing.F) {
	mixed := []data.BaseUpdate{
		{Rel: "R", Tuples: []data.Tuple{{data.Int(1), data.Float(2.5), data.String("x")}, {data.Int(-1), data.Float(0), data.String("")}}, Mult: 1},
		{Rel: "S", Tuples: []data.Tuple{data.Ints(7, 8)}, Mult: -3},
		{Rel: "T", Mult: 1},
	}
	real := batchFrame(9, 4, mixed)
	f.Add(real)
	f.Add(real[8:]) // a body: framed by the target
	f.Add(real[:len(real)/2])
	create := encodeCreateViewBody(nil, 3, ViewDef{Name: "v", SQL: "SELECT 1"})
	create[len(create)-2] = 2  // workers: written by earlier versions, ignored
	create[len(create)-1] |= 4 // bit 2: written by earlier versions, ignored
	f.Add(appendFrame(nil, create))
	f.Add(appendFrame(nil, encodeDropViewBody(nil, 4, "v")))
	f.Add(hostileUpdate(4, 1<<20, 16))
	f.Add([]byte{})
	var arena data.BatchArena
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, appendFrame(nil, b)} {
			heap, n, err := decodeRecord(in, nil)
			inArena, na, errA := decodeRecord(in, &arena)
			if (err == nil) != (errA == nil) || n != na {
				t.Fatalf("heap decode: %d bytes, %v; arena decode: %d bytes, %v", n, err, na, errA)
			}
			if err != nil {
				arena.Rewind()
				continue
			}
			tuples := 0
			for _, u := range heap.Batch {
				tuples += len(u.Tuples)
			}
			if len(heap.Batch) > len(in) || tuples > len(in) {
				t.Fatalf("%d bytes decoded to %d updates, %d tuples", len(in), len(heap.Batch), tuples)
			}
			if heap.Type != recBatch {
				if !reflect.DeepEqual(heap, inArena) {
					t.Fatalf("DDL record: heap %+v, arena %+v", heap, inArena)
				}
				continue
			}
			enc := encodeBatchBody(nil, heap.LSN, heap.Applied, heap.Batch)
			if encA := encodeBatchBody(nil, inArena.LSN, inArena.Applied, inArena.Batch); !bytes.Equal(enc, encA) {
				t.Fatalf("arena decode re-encodes to %x, heap decode to %x", encA, enc)
			}
			arena.Rewind()
			again, _, err := decodeRecord(appendFrame(nil, enc), nil)
			if err != nil || !reflect.DeepEqual(again, heap) {
				t.Fatalf("re-encoded record decodes to %+v (%v), want %+v", again, err, heap)
			}
			if enc2 := encodeBatchBody(nil, again.LSN, again.Applied, again.Batch); !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding is not a fixed point: %x then %x", enc, enc2)
			}
		}
	})
}

// TestAllocGuardDecodeRecord: decoding a batch record into a warm arena
// allocates nothing: not the relation names, which the arena keeps
// (BatchArena.Name), and nothing per tuple.
func TestAllocGuardDecodeRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	var arena data.BatchArena
	for _, n := range []int{100, 400} {
		ts := make([]data.Tuple, n)
		for i := range ts {
			ts[i] = data.Ints(int64(i), 2, 3, 4)
		}
		frame := batchFrame(1, 1, []data.BaseUpdate{{Rel: "Inventory", Tuples: ts, Mult: 1}, {Rel: "Inventory", Tuples: ts, Mult: -1}})
		decode := func() {
			if _, _, err := decodeRecord(frame, &arena); err != nil {
				t.Fatal(err)
			}
			arena.Rewind()
		}
		decode()
		decode() // the second rewind merged the chunks
		if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
			t.Errorf("%d tuples: %.1f allocs per record, want 0", 2*n, allocs)
		}
	}
}
