package datasets

import (
	"math/bits"
	"math/rand"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// TwitterConfig scales the synthetic follower graph standing in for the
// Higgs Twitter dataset.
type TwitterConfig struct {
	Users int
	Edges int
	Seed  int64
}

// DefaultTwitter is a laptop-scale configuration.
func DefaultTwitter() TwitterConfig {
	return TwitterConfig{Users: 400, Edges: 9000, Seed: 3}
}

// TriangleQuery returns the triangle query over the three edge relations.
func TriangleQuery() query.Query {
	return query.MustNew("triangle", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "A")},
	)
}

// TriangleOrder is the order A − B − C used in Appendix B / Figure 9.
func TriangleOrder() *vorder.Order {
	return vorder.MustNew(vorder.V("A", vorder.V("B", vorder.V("C"))))
}

// GenTwitter synthesizes a heavy-tailed digraph (preferential attachment on
// edge endpoints, as social graphs exhibit) and splits its edge list into
// three equal relations R(A,B), S(B,C), T(C,A) — the paper splits the first
// 3M Higgs Twitter records the same way.
func GenTwitter(cfg TwitterConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Preferential attachment: sample endpoints from the multiset of
	// previous endpoints with probability 1/2, else uniformly.
	pool := make([]int64, 0, 2*cfg.Edges)
	pick := func() int64 {
		if len(pool) > 0 && rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return int64(rng.Intn(cfg.Users))
	}
	// seen is an open-addressing set of the edges drawn so far, keyed
	// a·Users+b+1 (0 marks a free slot) and never more than half full.
	l := bits.Len(uint(cfg.Edges))
	seen := make([]uint64, 2<<l)
	slot := func(a, b int64) (*uint64, uint64) {
		k := uint64(a*int64(cfg.Users)+b) + 1
		for i := k * 0x9E3779B97F4A7C15 >> (63 - l); ; i = (i + 1) % uint64(len(seen)) {
			if seen[i] == 0 || seen[i] == k {
				return &seen[i], k
			}
		}
	}
	edges := carve(cfg.Edges, 2)
	for n := 0; n < len(edges); {
		a, b := pick(), pick()
		s, k := slot(a, b)
		if a == b || *s != 0 {
			// Degenerate or duplicate; draw fresh uniform endpoints to
			// guarantee progress.
			a, b = int64(rng.Intn(cfg.Users)), int64(rng.Intn(cfg.Users))
			if s, k = slot(a, b); a == b || *s != 0 {
				continue
			}
		}
		*s = k
		edges[n][0], edges[n][1] = data.Int(a), data.Int(b)
		n++
		pool = append(pool, a, b)
	}
	third := len(edges) / 3
	return &Dataset{
		Name:     "twitter",
		Query:    TriangleQuery(),
		NewOrder: TriangleOrder,
		Tuples: map[string][]data.Tuple{
			"R": edges[:third:third],
			"S": edges[third : 2*third : 2*third],
			"T": edges[2*third:],
		},
		Largest: "R",
	}
}
