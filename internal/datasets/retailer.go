package datasets

import (
	"math/rand"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// Retailer schema attribute lists (43 attributes in total, joined on locn,
// dateid, ksn, and zip as in the paper's snowflake).
var (
	retInventory = data.NewSchema("locn", "dateid", "ksn", "inventoryunits")
	retItem      = data.NewSchema("ksn", "subcategory", "category", "categoryCluster", "prize")
	retWeather   = data.NewSchema("locn", "dateid", "rain", "snow", "maxtemp", "mintemp", "meanwind", "thunder")
	retLocation  = data.NewSchema("locn", "zip", "rgn_cd", "clim_zn_nbr", "tot_area_sq_ft",
		"sell_area_sq_ft", "avghhi", "supertargetdistance", "supertargetdrivetime",
		"targetdistance", "targetdrivetime", "walmartdistance", "walmartdrivetime",
		"walmartsupercenterdistance", "walmartsupercenterdrivetime")
	retCensus = data.NewSchema("zip", "population", "white", "asian", "pacific", "blackafrican",
		"medianage", "occupiedhouseunits", "houseunits", "families", "households", "husbwife",
		"males", "females", "householdschildren", "hispanic")
)

// RetailerConfig scales the synthetic Retailer dataset.
type RetailerConfig struct {
	Locations int // number of stores
	Dates     int // number of dates
	Items     int // number of products (ksn)
	// ItemsPerLocDate is the expected number of inventory records per
	// (location, date) pair; Inventory dominates the dataset as in the
	// original (84M records vs thousands in the dimensions).
	ItemsPerLocDate int
	Seed            int64
}

// DefaultRetailer is a laptop-scale configuration preserving the original's
// shape: Inventory carries well over 90% of the tuples.
func DefaultRetailer() RetailerConfig {
	return RetailerConfig{Locations: 20, Dates: 60, Items: 100, ItemsPerLocDate: 25, Seed: 1}
}

// RetailerQuery returns the natural join query of the five relations with
// the given free variables.
func RetailerQuery(free ...string) query.Query {
	return query.MustNew("retailer", data.Schema(free),
		query.RelDef{Name: "Inventory", Schema: retInventory},
		query.RelDef{Name: "Item", Schema: retItem},
		query.RelDef{Name: "Weather", Schema: retWeather},
		query.RelDef{Name: "Location", Schema: retLocation},
		query.RelDef{Name: "Census", Schema: retCensus},
	)
}

// RetailerOrder builds the paper's variable order: the partial order on
// join variables is locn − {dateid − {ksn}, zip}, with each relation's
// local attributes forming a chain below its deepest join variable (so
// chain composition yields the paper's 9 views: five per-relation views,
// three intermediate, one root).
func RetailerOrder() *vorder.Order {
	chainOf := func(vars data.Schema, below *vorder.Node) *vorder.Node {
		// Build a downward chain of the vars, returning the top node.
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
		if below != nil {
			cur.Children = append(cur.Children, below)
		}
		return top
	}

	ksn := vorder.V("ksn",
		chainOf(data.NewSchema("inventoryunits"), nil),
		chainOf(retItem.Minus(data.NewSchema("ksn")), nil),
	)
	dateid := vorder.V("dateid",
		ksn,
		chainOf(retWeather.Minus(data.NewSchema("locn", "dateid")), nil),
	)
	zip := vorder.V("zip",
		chainOf(retLocation.Minus(data.NewSchema("locn", "zip")), nil),
		chainOf(retCensus.Minus(data.NewSchema("zip")), nil),
	)
	root := vorder.V("locn", dateid, zip)
	return vorder.MustNew(root)
}

// GenRetailer synthesizes the dataset.
func GenRetailer(cfg RetailerConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Dimension hierarchies. One zip per few locations, as in a real
	// store/zip mapping.
	zips := cfg.Locations/2 + 1
	d := &Dataset{
		Name:     "retailer",
		Query:    RetailerQuery(),
		NewOrder: RetailerOrder,
		Tuples: map[string][]data.Tuple{
			"Location":  carve(cfg.Locations, len(retLocation)),
			"Census":    carve(zips, len(retCensus)),
			"Item":      carve(cfg.Items, len(retItem)),
			"Weather":   carve(cfg.Locations*cfg.Dates, len(retWeather)),
			"Inventory": carve(cfg.Locations*cfg.Dates*cfg.ItemsPerLocDate, len(retInventory)),
		},
		Largest: "Inventory",
	}

	for l, t := range d.Tuples["Location"] {
		copy(t, data.Tuple{
			data.Int(int64(l)), data.Int(int64(l % zips)),
			ri(rng, 10), ri(rng, 8), ri(rng, 100000), ri(rng, 50000), ri(rng, 90000),
			ri(rng, 40), ri(rng, 60), ri(rng, 40), ri(rng, 60), ri(rng, 40), ri(rng, 60),
			ri(rng, 40), ri(rng, 60),
		})
	}
	for z, t := range d.Tuples["Census"] {
		t[0] = data.Int(int64(z))
		for i := 1; i < len(t); i++ {
			t[i] = ri(rng, 10000)
		}
	}
	for k, t := range d.Tuples["Item"] {
		copy(t, data.Tuple{
			data.Int(int64(k)), ri(rng, 20), ri(rng, 8), ri(rng, 4), ri(rng, 500),
		})
	}
	// Weather has one tuple per (location, date), Inventory (the fact
	// relation, by far the largest) ItemsPerLocDate, both in that order.
	for i, t := range d.Tuples["Weather"] {
		copy(t, data.Tuple{
			data.Int(int64(i / cfg.Dates)), data.Int(int64(i % cfg.Dates)),
			ri(rng, 2), ri(rng, 2), ri(rng, 40), ri(rng, 20), ri(rng, 30), ri(rng, 2),
		})
	}
	for i, t := range d.Tuples["Inventory"] {
		ld := i / cfg.ItemsPerLocDate
		copy(t, data.Tuple{
			data.Int(int64(ld / cfg.Dates)), data.Int(int64(ld % cfg.Dates)), ri(rng, cfg.Items), ri(rng, 200),
		})
	}
	return d
}
