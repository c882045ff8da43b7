package data

import (
	"fmt"

	"fivm/internal/ring"
)

// Sharded is a relation partitioned horizontally into n shards by the hash
// of one column: tuple t lives in shard t[col].Hash() % n. Tuples agreeing
// on the shard column always land in the same shard, so natural joins of
// relations sharded on a common column never cross shards — the property
// the parallel maintainer builds on. Each shard is an ordinary Relation
// that one worker may own privately; Sharded itself is not safe for
// concurrent mutation.
type Sharded[P any] struct {
	idx    int // position of the shard column in the schema
	shards []*Relation[P]
}

// NewSharded creates an empty n-way sharded relation partitioned on column
// col, which must occur in the schema.
func NewSharded[P any](r ring.Ring[P], schema Schema, col string, n int) (*Sharded[P], error) {
	idx := schema.IndexOf(col)
	if idx < 0 {
		return nil, fmt.Errorf("data: shard column %q not in schema %v", col, schema)
	}
	if n < 1 {
		return nil, fmt.Errorf("data: shard count %d < 1", n)
	}
	s := &Sharded[P]{idx: idx, shards: make([]*Relation[P], n)}
	for i := range s.shards {
		s.shards[i] = NewRelation(r, schema)
	}
	return s, nil
}

// N returns the shard count.
func (s *Sharded[P]) N() int { return len(s.shards) }

// Shard returns the i-th partition.
func (s *Sharded[P]) Shard(i int) *Relation[P] { return s.shards[i] }

// ShardOf returns the shard index tuple t routes to.
func (s *Sharded[P]) ShardOf(t Tuple) int {
	return int(t[s.idx].Hash() % uint64(len(s.shards)))
}

// Merge routes tuple t to its shard and merges payload p there.
func (s *Sharded[P]) Merge(t Tuple, p P) {
	s.shards[s.ShardOf(t)].Merge(t, p)
}

// Clear empties every shard, retaining table capacity for reuse as routing
// scratch.
func (s *Sharded[P]) Clear() {
	for _, sh := range s.shards {
		sh.Clear()
	}
}

// Split partitions a relation's current contents into n fresh relations by
// the hash of column col. The shards share the source's tuples (tuples are
// immutable) but own their payload storage under rings with in-place
// accumulation.
func Split[P any](r *Relation[P], col string, n int) ([]*Relation[P], error) {
	s, err := NewSharded[P](r.Ring(), r.Schema(), col, n)
	if err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		sh.Reserve(r.Len()/n + 1)
	}
	r.Iterate(func(t Tuple, p P) bool {
		s.Merge(t, p)
		return true
	})
	return s.shards, nil
}
