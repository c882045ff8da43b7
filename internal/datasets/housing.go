package datasets

import (
	"math/rand"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// Housing schema: six relations joining on postcode, 27 attributes total,
// mirroring the paper's synthetic house price market dataset.
var (
	houseSchema = data.NewSchema("postcode", "livingarea", "price", "nbbedrooms", "nbbathrooms",
		"kitchensize", "house", "flat", "unknown", "garden", "parking")
	shopSchema         = data.NewSchema("postcode", "openinghoursshop", "pricerangeshop", "sainsburys", "tesco", "ms")
	institutionSchema  = data.NewSchema("postcode", "typeeducation", "sizeinstitution")
	restaurantSchema   = data.NewSchema("postcode", "openinghoursrest", "pricerangerest")
	demographicsSchema = data.NewSchema("postcode", "averagesalary", "crimesperyear", "unemployment",
		"nbhospitals")
	transportSchema = data.NewSchema("postcode", "nbbuslines", "nbtrainstations", "distancecitycentre")
)

// HousingConfig scales the synthetic Housing dataset.
type HousingConfig struct {
	// Postcodes is the number of distinct join keys; the paper uses 25,000
	// and keeps it fixed across scales.
	Postcodes int
	// Scale multiplies the per-postcode tuple counts of House, Shop, and
	// Restaurant (the paper's scale factor 1..20); the listing join result
	// then grows cubically with Scale while the factorized one grows
	// linearly.
	Scale int
	Seed  int64
}

// DefaultHousing is a laptop-scale configuration.
func DefaultHousing() HousingConfig {
	return HousingConfig{Postcodes: 500, Scale: 2, Seed: 2}
}

// HousingQuery returns the star natural join of the six relations.
func HousingQuery(free ...string) query.Query {
	return query.MustNew("housing", data.Schema(free),
		query.RelDef{Name: "House", Schema: houseSchema},
		query.RelDef{Name: "Shop", Schema: shopSchema},
		query.RelDef{Name: "Institution", Schema: institutionSchema},
		query.RelDef{Name: "Restaurant", Schema: restaurantSchema},
		query.RelDef{Name: "Demographics", Schema: demographicsSchema},
		query.RelDef{Name: "Transport", Schema: transportSchema},
	)
}

// HousingOrder is the paper's optimal order: postcode at the root, each
// relation's local attributes forming a root-to-leaf chain below it.
func HousingOrder() *vorder.Order {
	chainOf := func(vars data.Schema) *vorder.Node {
		var top, cur *vorder.Node
		for _, v := range vars {
			n := vorder.V(v)
			if cur == nil {
				top = n
			} else {
				cur.Children = append(cur.Children, n)
			}
			cur = n
		}
		return top
	}
	pc := data.NewSchema("postcode")
	root := vorder.V("postcode",
		chainOf(houseSchema.Minus(pc)),
		chainOf(shopSchema.Minus(pc)),
		chainOf(institutionSchema.Minus(pc)),
		chainOf(restaurantSchema.Minus(pc)),
		chainOf(demographicsSchema.Minus(pc)),
		chainOf(transportSchema.Minus(pc)),
	)
	return vorder.MustNew(root)
}

// GenHousing synthesizes the dataset.
func GenHousing(cfg HousingConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Name:     "housing",
		Query:    HousingQuery(),
		NewOrder: HousingOrder,
		Tuples:   make(map[string][]data.Tuple, 6),
		Largest:  "House",
	}
	gen := func(rel string, schema data.Schema, perPostcode int) {
		ts := carve(cfg.Postcodes*perPostcode, len(schema))
		for i, t := range ts {
			t[0] = data.Int(int64(i / perPostcode))
			for j := 1; j < len(t); j++ {
				t[j] = ri(rng, 100)
			}
		}
		d.Tuples[rel] = ts
	}
	// Three relations grow with the scale factor (driving the cubic listing
	// growth); the other three stay at one tuple per postcode.
	gen("House", houseSchema, cfg.Scale)
	gen("Shop", shopSchema, cfg.Scale)
	gen("Restaurant", restaurantSchema, cfg.Scale)
	gen("Institution", institutionSchema, 1)
	gen("Demographics", demographicsSchema, 1)
	gen("Transport", transportSchema, 1)
	return d
}
