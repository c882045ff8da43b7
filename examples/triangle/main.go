// Triangle: maintain the triangle count of a social graph (paper Appendix
// B). The cyclic query defeats plain factorization — the intermediate view
// S ⋈ T has up to N² keys — but an indicator projection ∃_{A,B} R bounds it
// by |R| while preserving the result.
package main

import (
	"fmt"

	"fivm"
)

func main() {
	cfg := fivm.DefaultTwitter()
	cfg.Users, cfg.Edges = 300, 6000
	ds := fivm.GenTwitter(cfg)

	build := func(indicators bool) *fivm.Engine[int64] {
		eng, err := fivm.NewEngine[int64](ds.Query, fivm.TriangleOrder(), fivm.IntRing{},
			fivm.CountLift, fivm.EngineOptions[int64]{Indicators: indicators})
		if err != nil {
			panic(err)
		}
		if err := eng.Init(); err != nil {
			panic(err)
		}
		return eng
	}
	plain := build(false)
	indexed := build(true)

	// Stream the three edge relations in round-robin batches.
	for _, b := range fivm.RoundRobinStream(ds, ds.Query.RelNames(), 500) {
		rd, _ := ds.Query.Rel(b.Rel)
		d := fivm.NewRelation[int64](fivm.IntRing{}, rd.Schema)
		for _, t := range b.Tuples {
			d.Merge(t, 1)
		}
		if err := plain.ApplyDelta(b.Rel, d.Clone()); err != nil {
			panic(err)
		}
		if err := indexed.ApplyDelta(b.Rel, d); err != nil {
			panic(err)
		}
	}

	// Read through published snapshots (Result()/ViewOf() are live handles;
	// snapshots are the concurrency-safe read path). An epoch carries the
	// result; the views below it are published once Catalog asks for them.
	// A snapshot is a lease: Release it once read.
	count := func(e *fivm.Engine[int64]) int64 {
		snap := e.Snapshot()
		defer snap.Release()
		c, _ := snap.Result().Get(fivm.Tuple{})
		return c
	}
	cPlain, cInd := count(plain), count(indexed)
	fmt.Printf("triangles: %d (plain) = %d (with indicator): %v\n", cPlain, cInd, cPlain == cInd)

	// The indicator bounds the intermediate view at C.
	sizeAt := func(e *fivm.Engine[int64], v string) int {
		size := -1
		snap := e.Catalog()
		defer snap.Release()
		e.Tree().Walk(func(n *fivm.ViewNode) {
			if n.Var == v {
				if rel := snap.ViewOf(n); rel != nil {
					size = rel.Len()
				}
			}
		})
		return size
	}
	fmt.Printf("|V@C| plain:          %d keys (S⋈T pairs)\n", sizeAt(plain, "C"))
	fmt.Printf("|V@C| with indicator: %d keys (bounded by |R|)\n", sizeAt(indexed, "C"))
	fmt.Printf("memory: %d KiB plain vs %d KiB with indicator\n",
		plain.MemoryBytes()/1024, indexed.MemoryBytes()/1024)
}
