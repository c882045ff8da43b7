package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// The concurrent-reader property: K readers racing a streaming maintainer
// must each observe, at every refresh, a state byte-identical to the
// sequential oracle after some whole batch prefix — identified exactly by
// the snapshot epoch — and epochs must never regress within one reader.
// Exercised for the F-IVM engine over the Z and cofactor rings. Run under
// -race in CI.

// propQuery is R(A,B) ⋈ S(A,C) ⋈ T(C,D) with free [A]: a join with a
// non-trivial group-by result.
func propQuery() query.Query {
	return query.MustNew("Q", data.NewSchema("A"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")})
}

// fpEntries renders sorted entries deterministically; oracle relations and
// reader snapshots share it, so equality is byte-identity of rendered state.
func fpEntries[P any](es []data.Entry[P]) string {
	out := ""
	for _, e := range es {
		out += fmt.Sprintf("%v->%v;", e.Tuple, e.Payload)
	}
	return out
}

func fpRel[P any](r *data.Relation[P]) string          { return fpEntries(r.SortedEntries()) }
func fpSnap[P any](s *data.RelationSnapshot[P]) string { return fpEntries(s.SortedEntries()) }

// intLift counts; cofLift is the regression lifting over the query's four
// variables (integral inputs keep float arithmetic exact, so rendered
// states are bit-stable across engines).
func intLift(string, data.Value) int64 { return 1 }

func cofLift(vars data.Schema) data.LiftFunc[ring.Triple] {
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) }
}

// randomBatch builds one multi-relation batch of inserts and deletes.
func randomBatch[P any](rng *rand.Rand, q query.Query, one P, neg func(P) P) []ivm.NamedDelta[P] {
	rels := q.RelNames()
	n := 1 + rng.Intn(3)
	batch := make([]ivm.NamedDelta[P], 0, n)
	for i := 0; i < n; i++ {
		rd, _ := q.Rel(rels[rng.Intn(len(rels))])
		d := data.NewRelation[P](ringFor[P](), rd.Schema)
		for j := 0; j < 5+rng.Intn(10); j++ {
			tu := make(data.Tuple, len(rd.Schema))
			for k := range tu {
				tu[k] = data.Int(int64(rng.Intn(6)))
			}
			p := one
			if rng.Intn(4) == 0 {
				p = neg(p)
			}
			d.Merge(tu, p)
		}
		batch = append(batch, ivm.NamedDelta[P]{Rel: rd.Name, Delta: d})
	}
	return batch
}

// ringFor is a tiny helper so randomBatch can build relations generically;
// specialized below per payload type.
func ringFor[P any]() ring.Ring[P] {
	var p P
	switch any(p).(type) {
	case int64:
		return any(ring.Int{}).(ring.Ring[P])
	case float64:
		return any(ring.Float{}).(ring.Ring[P])
	case ring.Triple:
		return any(ring.Cofactor{}).(ring.Ring[P])
	}
	panic("unsupported payload")
}

// runConcurrentReaderProperty drives two engines built by mk — the oracle,
// recording the state fingerprint after every batch prefix, and a serving
// instance streamed concurrently with K readers — and checks every reader
// observation against the oracle prefix its epoch names.
func runConcurrentReaderProperty[P any](t *testing.T, mk func() (*ivm.Engine[P], error), one P, neg func(P) P) {
	t.Helper()
	const (
		nBatches = 60
		readers  = 4
	)
	q := propQuery()
	rng := rand.New(rand.NewSource(1234))
	batches := make([][]ivm.NamedDelta[P], nBatches)
	for i := range batches {
		batches[i] = randomBatch(rng, q, one, neg)
	}
	bases := map[string]*data.Relation[P]{}
	for _, rd := range q.Rels {
		b := data.NewRelation[P](ringFor[P](), rd.Schema)
		for j := 0; j < 30; j++ {
			tu := make(data.Tuple, len(rd.Schema))
			for k := range tu {
				tu[k] = data.Int(int64(rng.Intn(6)))
			}
			b.Merge(tu, one)
		}
		bases[rd.Name] = b
	}

	// build returns the engine mk builds, loaded and initialized.
	build := func() *ivm.Engine[P] {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for rel, b := range bases {
			if err := m.Load(rel, b.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Sequential oracle: fingerprint after Init and after each batch prefix.
	oracle := build()
	fps := make([]string, nBatches+1)
	fps[0] = fpRel(oracle.Result())
	for k, b := range batches {
		if err := oracle.ApplyDeltas(b); err != nil {
			t.Fatal(err)
		}
		fps[k+1] = fpRel(oracle.Result())
	}

	// Serving instance: enable publication from the maintenance goroutine,
	// then stream with concurrent readers.
	serving := build()
	first := serving.Snapshot()
	if first.Epoch != 0 {
		t.Fatalf("epoch after enable = %d, want 0", first.Epoch)
	}
	first.Release()

	var (
		done    atomic.Bool
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rd := NewReaderAt[P](serving, nil)
			defer rd.Close()
			last := uint64(0)
			checks := 0
			for {
				finished := done.Load()
				rd.Refresh()
				e := rd.Snapshot().Epoch
				if e < last {
					fail(fmt.Sprintf("reader %d: epoch regressed %d -> %d", id, last, e))
					return
				}
				if e > nBatches {
					fail(fmt.Sprintf("reader %d: epoch %d beyond %d applied batches", id, e, nBatches))
					return
				}
				if got := fpSnap(rd.Result()); got != fps[e] {
					fail(fmt.Sprintf("reader %d: torn state at epoch %d:\n got %s\nwant %s", id, e, got, fps[e]))
					return
				}
				// Point lookups must agree with the pinned iteration state.
				rd.Result().Iterate(func(tu data.Tuple, p P) bool {
					got, ok := rd.Lookup(tu)
					if !ok || fmt.Sprint(got) != fmt.Sprint(p) {
						fail(fmt.Sprintf("reader %d: Lookup(%v) = %v,%v want %v", id, tu, got, ok, p))
						return false
					}
					return true
				})
				last = e
				checks++
				if finished && e == nBatches {
					return
				}
			}
		}(i)
	}
	for _, b := range batches {
		if err := serving.ApplyDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	final := serving.Snapshot()
	if final.Epoch != nBatches {
		t.Fatalf("final epoch = %d, want %d", final.Epoch, nBatches)
	}
	final.Release()
	// Every reader gave its pins back: no publish generation was left for
	// the collector's backstop to find.
	runtime.GC()
	runtime.GC()
	if as := serving.PoolStats().Arena; as.BackstopReclaims != 0 {
		t.Fatalf("arena %+v: a reader forgot a lease", as)
	}
}

func negInt(p int64) int64 { return -p }

func negTriple(p ring.Triple) ring.Triple { return ring.Cofactor{}.Neg(p) }

func TestConcurrentReadersFIVMInt(t *testing.T) {
	runConcurrentReaderProperty[int64](t, intEngine, 1, negInt)
}

func TestConcurrentReadersFIVMCofactor(t *testing.T) {
	runConcurrentReaderProperty[ring.Triple](t, cofEngine, ring.Cofactor{}.One(), negTriple)
}

// intEngine and cofEngine are the F-IVM engines over propQuery the property
// runs: counting over Z, and the regression lifting over the cofactor ring.
func intEngine() (*ivm.Engine[int64], error) {
	return ivm.New[int64](propQuery(), mustOrder(), ring.Int{}, intLift, ivm.Options[int64]{})
}

func cofEngine() (*ivm.Engine[ring.Triple], error) {
	return ivm.New[ring.Triple](propQuery(), mustOrder(), ring.Cofactor{}, cofLift(propQuery().Vars()), ivm.Options[ring.Triple]{})
}

// mustOrder builds the heuristic order for propQuery (panicking variant for
// factory closures).
func mustOrder() *vorder.Order {
	o, err := vorder.Build(propQuery())
	if err != nil {
		panic(err)
	}
	return o
}
