package ivm

import (
	"fmt"
	"runtime"
	"sync"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// Parallel is a sharded parallel maintainer: it hash-partitions the
// database by one join variable — the shard variable — and runs one
// independent F-IVM engine per shard on a fixed worker pool.
//
// Correctness rests on partition-plus-broadcast join distribution. Let X be
// the shard variable and h the shard assignment on its values. Relations
// whose schema contains X are partitioned: shard i holds exactly the tuples
// with h(t[X]) = i. Relations without X are broadcast, fully replicated in
// every shard. Tuples from different partitions of X-bearing relations never
// join (they disagree on X), and every join output binds X, so the full
// join is the disjoint union of the per-shard joins; marginalization
// distributes over that union. The maintained query result is therefore the
// key-wise payload sum of the shard results, which every epoch publishes:
// disjoint key union when X is free in the query, a payload reduction when
// X is aggregated away (the empty-key root of Figure 7's cofactor queries).
//
// The shard variable is the query variable covered by the most relation
// schemas (the root of the paper's variable orders for the snowflake and
// star workloads). One shard is not a mode: workers <= 1, or a query with no
// variable to shard on, is a Parallel of one shard that routes, propagates
// and reduces like any other. A caller that wants the bare engine builds it
// itself.
//
// Parallel is an update rule under the common driver: check is the engines'
// own admission rule, apply routes a delta into per-shard scratch, the end of
// a batch runs every shard with work on its batch behind a barrier, and the
// epoch is the key-wise reduction of the shard results.
//
// Floating-point caveat: shard results are reduced key-wise, in sorted-entry
// encounter order, which differs from sequential update order, so
// non-integral float payloads may round differently than a single-threaded
// run. Integer and integral-float workloads (and the paper's benchmarks) are
// exact.
type Parallel[P any] struct {
	publishing[P] // ApplyDelta, ApplyDeltas, Snapshot over check, route, propagate and epoch

	ring     ring.Ring[P]
	shardVar string
	shards   []*Engine[P]

	jobs   chan func()
	closed bool
	// sem caps concurrently running shard jobs at the GOMAXPROCS value in
	// effect per dispatch; allocated lazily, only when shards exceed cores.
	sem chan struct{}

	// Routing scratch, filled by route and emptied by propagate: one Sharded
	// routing relation per relation that carries the shard variable (built
	// with the maintainer, over the query's column order), the names routed
	// in this batch, the per-shard batches, and the per-shard error slots for
	// one dispatch.
	routes  map[string]*data.Sharded[P]
	order   []string
	batches [][]NamedDelta[P]
	errs    []error

	// reduceParts is the reusable shard-result list handed to
	// data.ReduceSealed per publish.
	reduceParts []*data.Relation[P]
}

// pickShardVar returns the query variable contained in the most relation
// schemas, breaking ties by the query's variable order. Empty only when the
// query has no variables.
func pickShardVar(q query.Query) string {
	best, bestCover := "", 0
	for _, v := range q.Vars() {
		cover := 0
		for _, rd := range q.Rels {
			if rd.Schema.Contains(v) {
				cover++
			}
		}
		if cover > bestCover {
			best, bestCover = v, cover
		}
	}
	return best
}

// NewParallel builds a sharded parallel maintainer over workers shards,
// each an independent engine built by factory (an engine holds per-instance
// state, so every shard needs its own; all are built alike). workers <= 1 is
// one shard, and so is a query with nothing to shard on: every delta of it is
// a broadcast, and n shards that all hold everything would sum n copies of
// the result.
//
// The shard count is NOT clamped to the host's core count at construction:
// partitioning is a data layout decision that must stay stable for the
// maintainer's lifetime, while the core budget is a scheduling decision that
// can change at any time (runtime.GOMAXPROCS, container quota updates).
// Instead, dispatch caps the shards propagating concurrently at the
// GOMAXPROCS value in effect for each batch, so an 8-shard maintainer on a
// 4-core budget runs 4 shards at a time rather than thrashing 8.
func NewParallel[P any](q query.Query, r ring.Ring[P], workers int, factory func() (*Engine[P], error)) (*Parallel[P], error) {
	shardVar := pickShardVar(q)
	if workers < 1 || shardVar == "" {
		workers = 1
	}
	p := &Parallel[P]{
		ring: r, shardVar: shardVar,
		routes:  make(map[string]*data.Sharded[P]),
		batches: make([][]NamedDelta[P], workers),
		errs:    make([]error, workers),
	}
	p.publishing = publishing[P]{driver: driver[P]{check: p.check, apply: p.route, end: p.propagate}, epoch: p.epoch}
	for _, rd := range q.Rels {
		if !rd.Schema.Contains(shardVar) {
			continue
		}
		route, err := data.NewSharded[P](r, rd.Schema, shardVar, workers)
		if err != nil {
			return nil, err
		}
		for s := 0; s < workers; s++ {
			// Routing scratch: refilled per batch, cleared by propagate after
			// the batch's cross-shard barrier.
			route.Shard(s).RecycleCleared()
		}
		p.routes[rd.Name] = route
	}
	for i := 0; i < workers; i++ {
		m, err := factory()
		if err != nil {
			return nil, err
		}
		p.shards = append(p.shards, m)
	}
	p.jobs = make(chan func(), workers)
	for i := 0; i < workers; i++ {
		go func() {
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p, nil
}

// Close stops the worker pool. The maintainer must not be used afterwards.
func (p *Parallel[P]) Close() error {
	if !p.closed {
		close(p.jobs)
		p.closed = true
	}
	return nil
}

// dispatch runs f(shard) for every shard in the index set on the worker
// pool and returns the first error in shard order. In-flight jobs are capped
// at the runtime.GOMAXPROCS value read per call — not at construction — so
// the maintainer adapts when the core budget changes under it; when the
// budget covers every shard the cap adds no work at all.
func (p *Parallel[P]) dispatch(idx []int, f func(s int) error) error {
	var sem chan struct{}
	if limit := runtime.GOMAXPROCS(0); limit < len(idx) {
		if cap(p.sem) != limit {
			p.sem = make(chan struct{}, limit)
		}
		sem = p.sem
	}
	var wg sync.WaitGroup
	for _, s := range idx {
		s := s
		wg.Add(1)
		if sem != nil {
			sem <- struct{}{} // acquired before enqueue; released by the job
		}
		p.jobs <- func() {
			defer wg.Done()
			p.errs[s] = f(s)
			if sem != nil {
				<-sem
			}
		}
	}
	wg.Wait()
	for _, s := range idx {
		if err := p.errs[s]; err != nil {
			p.errs[s] = nil
			return fmt.Errorf("ivm: shard %d: %w", s, err)
		}
		p.errs[s] = nil
	}
	return nil
}

// allShards returns [0..n) for dispatching to every shard.
func (p *Parallel[P]) allShards() []int {
	out := make([]int, len(p.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// Load installs initial contents, splitting relations that carry the shard
// variable and replicating the rest. Every shard gets its own clone — never
// the caller's relation — so per-relation scratch state never crosses
// goroutines and later caller-side mutations of r cannot skew one shard's
// snapshot against the others'.
func (p *Parallel[P]) Load(rel string, r *data.Relation[P]) error {
	if r.Schema().Contains(p.shardVar) {
		parts, err := data.Split(r, p.shardVar, len(p.shards))
		if err != nil {
			return err
		}
		for s, part := range parts {
			if err := p.shards[s].Load(rel, part); err != nil {
				return err
			}
		}
		return nil
	}
	for _, m := range p.shards {
		if err := m.Load(rel, r.Clone()); err != nil {
			return err
		}
	}
	return nil
}

// LoadCounts is Engine.LoadCounts, sharded: a relation that carries the
// shard variable is split, one without it is handed to every shard, which at
// Init only iterate its entries.
func (p *Parallel[P]) LoadCounts(rel string, r *data.Relation[int64]) error {
	parts := []*data.Relation[int64]{r}
	if r.Schema().Contains(p.shardVar) {
		var err error
		if parts, err = data.Split(r, p.shardVar, len(p.shards)); err != nil {
			return err
		}
	}
	for s, m := range p.shards {
		if err := m.LoadCounts(rel, parts[min(s, len(parts)-1)]); err != nil {
			return err
		}
	}
	return nil
}

// Init initializes every shard in parallel.
func (p *Parallel[P]) Init() error {
	return p.dispatch(p.allShards(), func(s int) error { return p.shards[s].Init() })
}

// check is the engines' own admission rule (checkUpdate: initialized, a
// relation of the query, over its variables, updatable), run at the router,
// so that a batch a shard would refuse is refused before any delta is routed
// and no shard applies a part of it. The shards are built alike: the first
// one's verdict is all of theirs.
func (p *Parallel[P]) check(rel string, delta *data.Relation[P]) error {
	return p.shards[0].check(rel, delta)
}

// route is the update rule's first half: a delta of a shard-variable
// relation is hash-partitioned tuple by tuple into the relation's routing
// scratch, a delta of a broadcast relation goes to every shard's batch as it
// is (shared read-only — maintainers only iterate input deltas). Nothing
// reaches a shard before propagate.
func (p *Parallel[P]) route(rel string, d *data.Relation[P]) error {
	if d.Len() == 0 {
		return nil
	}
	route := p.routes[rel]
	if route == nil {
		for s := range p.batches {
			p.batches[s] = append(p.batches[s], NamedDelta[P]{Rel: rel, Delta: d})
		}
		return nil
	}
	if rs := route.Shard(0).Schema(); !rs.Equal(d.Schema()) {
		d = data.Project(d, rs)
	}
	d.Iterate(func(t data.Tuple, pl P) bool {
		route.Merge(t, pl)
		return true
	})
	if d.VolatileTuples() {
		// The shards store d's tuples as handed; they die when d's do.
		for s := range p.shards {
			route.Shard(s).MarkVolatile()
		}
	}
	p.order = append(p.order, rel)
	return nil
}

// propagate is the second half, the end of the batch: it completes the
// per-shard batches from the routed relations, runs every shard with work on
// its batch concurrently on the worker pool, and empties the routing scratch
// whatever came of it — a failed batch leaves nothing behind for the next and
// publishes nothing. The epoch it publishes otherwise, on the routing
// goroutine, reflects the whole batch across every shard.
func (p *Parallel[P]) propagate() error {
	var idx [64]int
	work := idx[:0]
	for s := range p.shards {
		for _, rel := range p.order {
			if d := p.routes[rel].Shard(s); d.Len() > 0 {
				p.batches[s] = append(p.batches[s], NamedDelta[P]{Rel: rel, Delta: d})
			}
		}
		if len(p.batches[s]) > 0 {
			work = append(work, s)
		}
	}
	err := p.dispatch(work, func(s int) error { return p.shards[s].ApplyDeltas(p.batches[s]) })
	for _, rel := range p.order {
		p.routes[rel].Clear()
	}
	p.order = p.order[:0]
	for s := range p.batches {
		p.batches[s] = p.batches[s][:0]
	}
	if err != nil {
		return err
	}
	p.pub.next(p.epoch)
	return nil
}

// ViewCount reports the logical view count (every shard materializes the
// same view structure).
func (p *Parallel[P]) ViewCount() int { return p.shards[0].ViewCount() }

// PoolStats sums the shards' pools and the routing scratch's slabs (see
// Engine.PoolStats). Maintenance-goroutine only, between batches.
func (p *Parallel[P]) PoolStats() data.PoolStats {
	var ps data.PoolStats
	ps.Arena.Headers = p.pub.free.Stats()
	for _, m := range p.shards {
		ps.Add(m.PoolStats())
	}
	for _, route := range p.routes {
		for s := 0; s < route.N(); s++ {
			ps.AddSlabs(route.Shard(s).PoolStats())
		}
	}
	return ps
}

// MemoryBytes sums the shards' materialized state (broadcast relations are
// replicated and counted once per shard, as they are truly held per shard).
func (p *Parallel[P]) MemoryBytes() int {
	total := 0
	for _, m := range p.shards {
		total += m.MemoryBytes()
	}
	return total
}
