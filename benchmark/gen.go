package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
)

// Everything a workload feeds the program is made here, from the seed, during
// set-up: the program itself only ever sees tuples, batches and request bytes.

// retailerStream is the in-process input: the Retailer dataset cut into
// round-robin insert batches, and the same batches as retractions.
type retailerStream struct {
	ds       *datasets.Dataset
	cat      db.Catalog
	inserts  [][]db.Update
	retracts [][]db.Update
	tuples   int // per half-cycle
	sha      string
	// distinctRatio is the mean over batches of distinct probe keys per tuple
	// (see probeKeyCols): the input property the plan-step fuser keys on.
	distinctRatio float64
}

func catalogOf(ds *datasets.Dataset) db.Catalog {
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	return cat
}

func genRetailerStream(cfg datasets.RetailerConfig, batchSize int) *retailerStream {
	ds := datasets.GenRetailer(cfg)
	st := &retailerStream{ds: ds, cat: catalogOf(ds)}
	h := sha256.New()
	var ratioSum float64
	for _, b := range datasets.RoundRobinStream(ds, ds.Query.RelNames(), batchSize) {
		st.inserts = append(st.inserts, []db.Update{{Rel: b.Rel, Tuples: b.Tuples, Mult: 1}})
		st.retracts = append(st.retracts, []db.Update{{Rel: b.Rel, Tuples: b.Tuples, Mult: -1}})
		st.tuples += len(b.Tuples)
		hashBatch(h, b.Rel, 1, b.Tuples)
		ratioSum += distinctRatio(st.cat[b.Rel], ds, b.Tuples)
	}
	st.sha = hex.EncodeToString(h.Sum(nil))
	st.distinctRatio = ratioSum / float64(len(st.inserts))
	return st
}

func hashBatch(h hash.Hash, rel string, mult int64, tuples []data.Tuple) {
	var buf []byte
	buf = append(buf, rel...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mult))
	for _, t := range tuples {
		buf = t.AppendKey(buf)
	}
	h.Write(buf)
}

// probeKeyCols returns the columns of a relation that are join attributes
// (shared with another relation), minus the last of them when there are
// several: what is left of a delta's key once the relation's own attributes
// and its deepest join attribute are marginalised, i.e. the key of the first
// merge in its delta plan. Many tuples per such key is what run fusion needs.
func probeKeyCols(sch data.Schema, ds *datasets.Dataset) []int {
	var cols []int
	for i, a := range sch {
		if len(ds.Query.RelsWith(a)) > 1 {
			cols = append(cols, i)
		}
	}
	if len(cols) > 1 {
		cols = cols[:len(cols)-1]
	}
	return cols
}

func distinctRatio(sch data.Schema, ds *datasets.Dataset, tuples []data.Tuple) float64 {
	cols := probeKeyCols(sch, ds)
	seen := make(map[string]struct{}, len(tuples))
	var buf []byte
	for _, t := range tuples {
		buf = buf[:0]
		for _, c := range cols {
			buf = data.Tuple{t[c]}.AppendKey(buf)
		}
		seen[string(buf)] = struct{}{}
	}
	return float64(len(seen)) / float64(len(tuples))
}

// --- serve inputs -------------------------------------------------------------

// serveInputs is what the two serve workloads send: the preload, the write
// requests (as bytes for the wire and as updates for the in-process replays)
// and the read sequence.
type serveInputs struct {
	cfg     datasets.RetailerConfig
	ds      *datasets.Dataset
	cat     db.Catalog
	preload [][]db.Update
	writes  []writeReq
	reads   []readReq
	sha     string
}

type writeReq struct {
	body   []byte // complete HTTP request
	batch  []db.Update
	tuples int
}

// readReq names a read by what it asks for; readTargets turns it into a
// request once the served view's key order is known.
type readReq struct {
	kind readKind
	a, b uint32 // lookupLocnDate: locn, dateid; lookupKsn: ksn; scan: a random number
}

type readKind uint8

const (
	lookupLocnDate readKind = iota
	lookupKsn
	scanPrefix
)

const (
	lookupView = "v_by_locn_date"
	ksnView    = "v_by_ksn"
)

// genServeInputs builds the serve inputs. Writes slide a window over
// Inventory: each request inserts half its tuples fresh and deletes the same
// number of the oldest live ones, so no delete ever misses and the state
// stays at its preloaded size. Lookups pick a group by Zipf(1.1) rank over a
// seed-shuffled order, one in four on the ksn view; scanShare of the reads are
// prefix scans.
func genServeInputs(cfg datasets.RetailerConfig, nWrites, tuplesPerWrite, nReads int, scanShare float64) *serveInputs {
	ds := datasets.GenRetailer(cfg)
	in := &serveInputs{cfg: cfg, ds: ds, cat: catalogOf(ds)}
	h := sha256.New()
	for _, b := range datasets.RoundRobinStream(ds, ds.Query.RelNames(), 1000) {
		in.preload = append(in.preload, []db.Update{{Rel: b.Rel, Tuples: b.Tuples, Mult: 1}})
		hashBatch(h, b.Rel, 1, b.Tuples)
	}

	// The live tuples leave in a shuffled order: in generation order the
	// deletes would empty one (locn, dateid) group after the other.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	live := append([]data.Tuple(nil), ds.Tuples["Inventory"]...)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	half := tuplesPerWrite / 2
	in.writes = make([]writeReq, nWrites)
	for i := range in.writes {
		ins := make([]data.Tuple, half)
		for j := range ins {
			ins[j] = data.Ints(int64(rng.Intn(cfg.Locations)), int64(rng.Intn(cfg.Dates)),
				int64(rng.Intn(cfg.Items)), int64(rng.Intn(200)))
		}
		del := live[:half:half]
		live = append(live[half:], ins...)
		batch := []db.Update{
			{Rel: "Inventory", Tuples: ins, Mult: 1},
			{Rel: "Inventory", Tuples: del, Mult: -1},
		}
		hashBatch(h, "Inventory", 1, ins)
		hashBatch(h, "Inventory", -1, del)
		in.writes[i] = writeReq{body: applyRequest(batch), batch: batch, tuples: 2 * half}
	}

	type pair struct{ l, d uint32 }
	var pairs []pair
	for l := 0; l < cfg.Locations; l++ {
		for d := 0; d < cfg.Dates; d++ {
			pairs = append(pairs, pair{uint32(l), uint32(d)})
		}
	}
	ksns := rng.Perm(cfg.Items)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	zp := rand.NewZipf(rng, 1.1, 1, uint64(len(pairs)-1))
	zk := rand.NewZipf(rng, 1.1, 1, uint64(len(ksns)-1))
	in.reads = make([]readReq, nReads)
	var rb []byte
	for i := range in.reads {
		switch {
		case rng.Float64() < scanShare:
			in.reads[i] = readReq{kind: scanPrefix, a: rng.Uint32()}
		case rng.Intn(4) == 0:
			in.reads[i] = readReq{kind: lookupKsn, a: uint32(ksns[zk.Uint64()])}
		default:
			p := pairs[zp.Uint64()]
			in.reads[i] = readReq{kind: lookupLocnDate, a: p.l, b: p.d}
		}
		rb = append(rb, byte(in.reads[i].kind))
		rb = binary.LittleEndian.AppendUint32(rb, in.reads[i].a)
		rb = binary.LittleEndian.AppendUint32(rb, in.reads[i].b)
	}
	h.Write(rb)
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in
}

// readTarget is one distinct read: the request bytes for the wire and the
// same read as the in-process replays make it.
type readTarget struct {
	req  []byte
	url  string
	view string
	key  data.Tuple // lookup key or scan prefix, in the view's key order
	scan bool
	rows int // rows a scan returns while every group is present
}

// readTargets renders every distinct read against the key order the serving
// replica's planner chose for the lookup view (which need not be the GROUP BY
// order; scans bind its leading attribute) and maps each read of the sequence
// to its target.
func (in *serveInputs) readTargets(schema data.Schema) ([]readTarget, []uint32) {
	locnFirst := schema[0] == "locn"
	dims := [2]int{in.cfg.Dates, in.cfg.Locations} // size of attribute 0, 1 in key order
	if locnFirst {
		dims = [2]int{in.cfg.Locations, in.cfg.Dates}
	}
	var targets []readTarget
	add := func(t readTarget) {
		t.req = getRequest(t.url)
		targets = append(targets, t)
	}
	// Lookup (x, y) in key order sits at x*dims[1]+y, ksn k after those,
	// the scan of leading value x after those.
	for x := 0; x < dims[0]; x++ {
		for y := 0; y < dims[1]; y++ {
			add(readTarget{url: fmt.Sprintf("/view/%s/lookup?key=%d&key=%d", lookupView, x, y),
				view: lookupView, key: data.Ints(int64(x), int64(y))})
		}
	}
	ksnBase := len(targets)
	for k := 0; k < in.cfg.Items; k++ {
		add(readTarget{url: fmt.Sprintf("/view/%s/lookup?key=%d", ksnView, k), view: ksnView, key: data.Ints(int64(k))})
	}
	scanBase := len(targets)
	for x := 0; x < dims[0]; x++ {
		add(readTarget{url: fmt.Sprintf("/view/%s/scan?key=%d", lookupView, x),
			view: lookupView, key: data.Ints(int64(x)), scan: true, rows: dims[1]})
	}
	seq := make([]uint32, len(in.reads))
	for i, r := range in.reads {
		switch r.kind {
		case lookupLocnDate:
			x, y := int(r.b), int(r.a)
			if locnFirst {
				x, y = y, x
			}
			seq[i] = uint32(x*dims[1] + y)
		case lookupKsn:
			seq[i] = uint32(ksnBase + int(r.a))
		case scanPrefix:
			seq[i] = uint32(scanBase + int(r.a)%dims[0])
		}
	}
	return targets, seq
}

// applyRequest renders one POST /apply as the bytes that go on the wire.
func applyRequest(batch []db.Update) []byte {
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i, u := range batch {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"rel":%q,"mult":%d,"tuples":[`, u.Rel, u.Mult)
		for j, t := range u.Tuples {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for k, v := range t {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatInt(v.AsInt(), 10))
			}
			b.WriteByte(']')
		}
		b.WriteString("]}")
	}
	b.WriteString("]}")
	body := b.String()
	return []byte("POST /apply HTTP/1.1\r\nHost: fivm\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}

func getRequest(url string) []byte {
	return []byte("GET " + url + " HTTP/1.1\r\nHost: fivm\r\n\r\n")
}

// scaleDates shrinks a Retailer configuration along its date axis, which
// scales Inventory and Weather and leaves the dimension tables alone.
func scaleDates(cfg datasets.RetailerConfig, scale float64) datasets.RetailerConfig {
	cfg.Dates = max(2, int(math.Round(float64(cfg.Dates)*scale)))
	return cfg
}
