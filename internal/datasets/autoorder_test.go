package datasets

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/vorder"
)

// statsOf seeds a collector from a generated dataset (the ANALYZE path the
// benchmarks use before self-planning).
func statsOf(d *Dataset) *data.Stats {
	st := data.NewStats()
	for rel, ts := range d.Tuples {
		rd, _ := d.Query.Rel(rel)
		rs := st.Rel(rel, rd.Schema)
		for _, t := range ts {
			rs.ObserveInsert(t)
		}
	}
	return st
}

// TestChosenOrderNoWorseThanHandpicked pins the optimizer acceptance bar on
// every benchmark query: the cost-based order must rank no worse than the
// paper's handpicked order under the model seeded with the dataset's own
// statistics, and must stay within the handpicked width.
func TestChosenOrderNoWorseThanHandpicked(t *testing.T) {
	for _, d := range []*Dataset{
		GenRetailer(RetailerConfig{Locations: 8, Dates: 16, Items: 40, ItemsPerLocDate: 8, Seed: 1}),
		GenHousing(HousingConfig{Postcodes: 80, Scale: 2, Seed: 2}),
		GenTwitter(TwitterConfig{Users: 80, Edges: 900, Seed: 3}),
	} {
		st := statsOf(d)
		m := vorder.NewCostModel(d.Query, st, nil)
		chosen, err := vorder.Choose(d.Query, m)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		hand := d.NewOrder()
		if err := hand.Prepare(d.Query); err != nil {
			t.Fatal(err)
		}
		cc, hc := m.Cost(chosen).Total(), m.Cost(hand).Total()
		if cc > hc*1.0001 {
			t.Errorf("%s: chosen cost %v worse than handpicked %v\n chosen %s\n hand   %s",
				d.Name, cc, hc, chosen.String(), hand.String())
		}
		if cw, hw := chosen.Width(d.Query), hand.Width(d.Query); cw > hw {
			t.Errorf("%s: chosen width %d > handpicked %d", d.Name, cw, hw)
		}
		t.Logf("%s:\n  handpicked cost %s\n    %s\n  chosen     cost %s\n    %s",
			d.Name, m.Cost(hand), hand.String(), m.Cost(chosen), chosen.String())
	}
}
