package data

import "math"

// sketchBits is the bitmap size of a VarSketch. 4096 bits (512 bytes) keeps
// linear counting within a few percent up to ~10k distinct values and
// saturates gracefully beyond — plenty for cardinality *ranking*, which is
// all the optimizer needs.
const sketchBits = 1 << 12

// VarSketch estimates the number of distinct values observed for one column
// by linear (bitmap) counting: each value sets one hash-addressed bit, and
// the distinct count is recovered from the fill fraction. Observing a value
// is one hash and one bit test — cheap enough for hot merge paths — and the
// estimate is monotone (deletions are ignored, as is standard for sketches).
type VarSketch struct {
	bits [sketchBits / 64]uint64
	set  int
}

// Observe records one value.
func (s *VarSketch) Observe(v Value) {
	h := v.Hash() & (sketchBits - 1)
	if s.bits[h>>6]&(1<<(h&63)) == 0 {
		s.bits[h>>6] |= 1 << (h & 63)
		s.set++
	}
}

// Distinct returns the linear-counting estimate of the distinct values
// observed. A saturated bitmap reports m·ln(m), the largest count the
// sketch can distinguish.
func (s *VarSketch) Distinct() float64 {
	m := float64(sketchBits)
	switch {
	case s.set == 0:
		return 0
	case s.set >= sketchBits:
		return m * math.Log(m)
	default:
		return -m * math.Log(1-float64(s.set)/m)
	}
}

// RelStats tracks one relation's statistics: its cardinality, the number of
// delta tuples expected at it (the update-rate signal), and one
// distinct-count sketch per column. Like the Stats it belongs to, it has one
// writer.
type RelStats struct {
	Schema Schema
	// Live is the number of keys an ANALYZE pass observed.
	Live int
	// DeltaTuples is the number of delta entries the caller expects at this
	// relation — the optimizer's per-relation update-rate signal. Only a
	// caller's own ANALYZE sets it; ObserveRelation leaves it alone.
	DeltaTuples int64

	sketches []VarSketch
}

// NewRelStats creates empty statistics over a schema.
func NewRelStats(schema Schema) *RelStats {
	return &RelStats{Schema: schema, sketches: make([]VarSketch, len(schema))}
}

// ObserveInsert records a key appearing with non-zero payload. The tuple's
// values feed the per-column sketches.
func (rs *RelStats) ObserveInsert(t Tuple) {
	rs.Live++
	rs.observeValues(t)
}

func (rs *RelStats) observeValues(t Tuple) {
	n := len(rs.sketches)
	for i, v := range t {
		if i >= n {
			break
		}
		rs.sketches[i].Observe(v)
	}
}

// Card returns the estimated current cardinality.
func (rs *RelStats) Card() float64 { return float64(rs.Live) }

// Distinct returns the estimated distinct count of a column, or 0 when the
// column is unknown or nothing was observed.
func (rs *RelStats) Distinct(v string) float64 {
	i := rs.Schema.IndexOf(v)
	if i < 0 || i >= len(rs.sketches) {
		return 0
	}
	return rs.sketches[i].Distinct()
}

// Stats is a database-wide statistics collector: one RelStats per relation.
// It is the optimizer's input — per-relation cardinalities, per-variable
// distinct counts, and expected delta rates. A collector has one writer, an
// ANALYZE pass over stored rows (ObserveRelation, or a caller's own): an
// engine runs one over the rows it loads when it plans for itself. An engine
// reads a collector only when it plans, and never writes to it; to seed
// several maintainers from one pass, give each a Clone. Not safe for
// concurrent use while it is written.
type Stats struct {
	rels map[string]*RelStats
}

// NewStats creates an empty collector.
func NewStats() *Stats { return &Stats{rels: make(map[string]*RelStats)} }

// Rel returns the named relation's statistics, creating them over the given
// schema on first use.
func (st *Stats) Rel(name string, schema Schema) *RelStats {
	if rs, ok := st.rels[name]; ok {
		return rs
	}
	rs := NewRelStats(schema)
	st.rels[name] = rs
	return rs
}

// Lookup returns the named relation's statistics, or nil.
func (st *Stats) Lookup(name string) *RelStats {
	if st == nil {
		return nil
	}
	return st.rels[name]
}

// TotalDeltaTuples sums the observed delta tuples across relations.
func (st *Stats) TotalDeltaTuples() int64 {
	if st == nil {
		return 0
	}
	var n int64
	for _, rs := range st.rels {
		n += rs.DeltaTuples
	}
	return n
}

// ObserveRelation bulk-observes a relation's current contents under the
// given name — the ANALYZE path used to seed a collector from loaded data.
func ObserveRelation[P any](st *Stats, name string, r *Relation[P]) {
	rs := st.Rel(name, r.Schema())
	r.Iterate(func(t Tuple, _ P) bool {
		rs.ObserveInsert(t)
		return true
	})
}

// Clone deep-copies the collector, sketches included, so one ANALYZE pass can
// seed many maintainers, each planning from its own copy.
func (st *Stats) Clone() *Stats {
	if st == nil {
		return nil
	}
	out := NewStats()
	for name, rs := range st.rels {
		c := *rs
		c.sketches = append([]VarSketch(nil), rs.sketches...)
		out.rels[name] = &c
	}
	return out
}
