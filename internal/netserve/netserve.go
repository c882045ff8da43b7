// Package netserve is the network read/write surface over a db.DB: a
// dependency-free HTTP server exposing the epoch-pinned read path (point
// lookups, ordered prefix scans), one-shot SELECT, view DDL, and a
// backpressured write path.
//
// Consistency contract: every request pins exactly one published Epoch and
// answers entirely from it, so a response is never torn across batches. The
// pinned epoch is reported on every response via the X-Fivm-Epoch (epoch
// sequence number), X-Fivm-Applied (batches reflected), and X-Fivm-Lag
// (age of the epoch's publication) headers; a client that must not read
// backwards passes ?min_epoch=N and gets 412 Precondition Failed when the
// serving epoch is older (e.g. on a lagging read replica).
//
// Backpressure: writes go through a bounded db.ApplyQueue. When the queue
// is full, POST /apply fails fast with 429 Too Many Requests and a
// Retry-After header instead of queueing unbounded work. A batch lives in its
// request: the body is read into a pooled buffer and its tuples scanned into
// a pooled data.BatchArena, which is rewound as soon as the queue reports the
// batch applied — the store and the views have copied what they keep by then.
//
// Connections: Serve speaks HTTP/1.x itself (conn.go), a goroutine per
// connection routing requests through ServeHTTP. A request whose head is
// already buffered whole and has the common shape (request.go: GET, POST or
// HEAD of a plain path, HTTP/1.1 or 1.0, the few headers curl, Go's client and
// the benchmark send) is parsed by parseHead; every other is left to
// http.ReadRequest, so that every refusal and unusual form is net/http's. Each
// connection keeps the head parseHead copies and the request it fills, a
// response writer and serve.Reader handles (key-encoding scratch) re-pinned to
// each request's epoch. A request releases its epoch, and the reader's pin
// with it, before it returns: an idle connection holds no snapshot storage.
//
// Lifetime: a string of a request parseHead fills (method, target, header
// values, the view name and the query's values) is cut from the connection's
// head buffer with unsafe.String and is valid until the handler returns, as a
// fasthttp RequestCtx's; the next head overwrites it. No handler keeps one.
//
// Allocation: a request parseHead takes allocates nothing here (a head left to
// http.ReadRequest costs its Request, URL and header map, about 0.9 KiB).
// ServeHTTP matches the routes' path segments and hands a view route its name.
// The query is parsed in one pass into a pooled struct and the reply appended
// into its buffer; the writer reuses its header map and body buffer and
// appends the status line, Date, Content-Length and the epoch's numbers
// itself. A POST /apply scans its body in one pass into pooled storage.
package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	pathpkg "path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/serve"
	"fivm/internal/wal"
)

// Config configures a Server.
type Config struct {
	// DB returns the database to serve. It is a function, not a pointer,
	// because a replication follower atomically swaps its DB on checkpoint
	// re-bootstrap; each request calls DB once and works on that instance.
	DB func() *db.DB

	// Queue is the bounded ingest queue feeding the DB's maintenance
	// goroutine. nil makes the server read-only (the follower shape):
	// POST /apply, /exec, and /select answer 403.
	Queue *db.ApplyQueue
}

const (
	// retryAfter is the hint sent with 429 responses.
	retryAfter = time.Second
	// maxScan caps the rows one scan or SELECT returns.
	maxScan = 10000
)

// Server is the HTTP server. Create with New, start with Serve, stop with
// Shutdown (which drains in-flight requests before returning).
type Server struct {
	cfg    Config
	routes [8]route
	selSeq atomic.Uint64
	// Requests whose head parseHead took, and those left to http.ReadRequest.
	headsParsed, headsRead atomic.Uint64
	// retryAfter is the 429 hint: the constant, which a test lengthens.
	retryAfter time.Duration
	// The connection limits: the constants, which a test shortens.
	readHeaderTimeout, readTimeout, idleTimeout time.Duration
	mu                                          sync.Mutex                // guards listeners and conns
	listeners                                   map[net.Listener]struct{} // every one Serve took, for Shutdown to close
	conns                                       map[*conn]struct{}        // the connections being served
	closing                                     atomic.Bool               // Shutdown was called
	// applyStates pools what POST /apply decodes into (*applyState): body
	// buffer, batch arena and scratch, taken per request and given back,
	// rewound, once the batch is applied.
	applyStates sync.Pool
	// readStates pools the *readState of the read routes and /select.
	readStates sync.Pool
	// hdrs caches the epoch header values of the last epoch served.
	hdrs atomic.Pointer[epochHeaders]
}

// New builds a Server over the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("netserve: Config.DB is required")
	}
	s := &Server{cfg: cfg, readHeaderTimeout: readHeaderTimeout, readTimeout: readTimeout,
		idleTimeout: idleTimeout, retryAfter: retryAfter, listeners: map[net.Listener]struct{}{}, conns: map[*conn]struct{}{}}
	s.readStates.New = func() any { return new(readState).reset() }
	s.applyStates.New = func() any { return new(applyState) }
	s.routes = [...]route{
		{http.MethodGet, []string{"healthz"}, s.read(s.handleHealthz)},
		{http.MethodGet, []string{"stats"}, s.read(s.handleStats)},
		{http.MethodGet, []string{"views"}, s.read(s.handleViews)},
		{http.MethodGet, []string{"view", "", "lookup"}, s.read(s.handleView(false))},
		{http.MethodGet, []string{"view", "", "scan"}, s.read(s.handleView(true))},
		{http.MethodPost, []string{"exec"}, s.handleExec},
		{http.MethodPost, []string{"select"}, s.handleSelect},
		{http.MethodPost, []string{"apply"}, s.handleApply},
	}
	return s, nil
}

// Handler exposes the router Serve uses, for tests and embedding. A request
// served this way gets its own readers and the cached epoch header strings.
func (s *Server) Handler() http.Handler { return s }

// route is one of the eight routes: its method, its path's segments ("" is a
// view's {name}) and its handler, which gets the view's name.
type route struct {
	method string
	segs   []string
	h      func(w http.ResponseWriter, r *http.Request, view string)
}

// allow is the Allow header of a 405, by the route's method.
var allow = map[string]string{http.MethodGet: "GET, HEAD", http.MethodPost: "POST"}

// ServeHTTP routes a request as an http.ServeMux over the routes' patterns
// ("GET /view/{name}/lookup", ...) did: 400 for a target of "*", 301 to the
// cleaned path for an unclean one but a CONNECT's, a GET route's handler for
// HEAD too, 405 with Allow for another method and 404 for a path no route has.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.EscapedPath()
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
	} else if clean := cleanPath(path); clean != path && r.Method != http.MethodConnect {
		http.Redirect(w, r, (&url.URL{Path: clean, RawQuery: r.URL.RawQuery}).String(), http.StatusMovedPermanently)
	} else if rt, view := s.route(path); rt == nil {
		http.NotFound(w, r)
	} else if r.Method == rt.method || r.Method == http.MethodHead && rt.method == http.MethodGet {
		rt.h(w, r, view)
	} else {
		w.Header().Set("Allow", allow[rt.method])
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	}
}

// route returns the route of an escaped path and the view name it gives, or
// nil. A path ending in '/' is no route's.
func (s *Server) route(path string) (*route, string) {
	rest, ok := strings.CutPrefix(path, "/")
	if !ok || strings.HasSuffix(path, "/") {
		return nil, ""
	}
	for i := range s.routes {
		if view, ok := s.routes[i].match(rest); ok {
			return &s.routes[i], view
		}
	}
	return nil, ""
}

// match reports whether a path, its leading '/' cut, is the route's, and the
// view name it gives. Segments are compared unescaped, and a name of "%2F" is
// none: as a trailing slash it matches no {name}.
func (rt *route) match(path string) (view string, ok bool) {
	if strings.Count(path, "/") != len(rt.segs)-1 {
		return "", false
	}
	for _, want := range rt.segs {
		seg, rest, _ := strings.Cut(path, "/")
		if u, err := url.PathUnescape(seg); err == nil {
			seg = u
		}
		if want == "" && seg != "/" {
			view = seg
		} else if seg != want {
			return "", false
		}
		path = rest
	}
	return view, true
}

// cleanPath is net/http's: path.Clean rooted at '/', keeping a trailing slash.
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	np := pathpkg.Clean(p)
	if np != "/" && strings.HasSuffix(p, "/") {
		np += "/"
	}
	return np
}

// connReaders is the per-connection serve.Reader cache: one reader per
// payload type, pinned to a request's epoch for the request only.
type connReaders struct {
	f serve.Reader[float64]
	i serve.Reader[int64]
}

// readersKey carries a reader cache in a Handler() request's context (tests).
type readersKey struct{}

func readersOf(w http.ResponseWriter, r *http.Request) *connReaders {
	if rw, ok := w.(*response); ok {
		return &rw.readers
	}
	if cr, ok := r.Context().Value(readersKey{}).(*connReaders); ok {
		return cr
	}
	return &connReaders{}
}

// --- request plumbing -----------------------------------------------------

// jsonContentType is every response's Content-Type, assigned, not copied: a
// response header's values are never written in place.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeBody sends the 200 a hot route appended into its request's buffer.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a write fails when the client has gone
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// epochHeaders holds the X-Fivm-Epoch and X-Fivm-Applied values of one epoch,
// formatted once and shared by every response from it that goes through
// Handler() (Serve's writer appends them as digits). The numbers are the key,
// so a follower's swapped DB cannot be served another's.
type epochHeaders struct {
	seq, applied         uint64
	seqText, appliedText []string
}

func (s *Server) setEpochHeaders(w http.ResponseWriter, e *db.Epoch) {
	if rw, ok := w.(*response); ok {
		rw.epoch, rw.seq, rw.applied, rw.lag = true, e.Seq, e.Applied, time.Since(e.At)
		return
	}
	c := s.hdrs.Load()
	if c == nil || c.seq != e.Seq || c.applied != e.Applied {
		c = &epochHeaders{e.Seq, e.Applied,
			[]string{strconv.FormatUint(e.Seq, 10)}, []string{strconv.FormatUint(e.Applied, 10)}}
		s.hdrs.Store(c)
	}
	h := w.Header()
	h["X-Fivm-Epoch"], h["X-Fivm-Applied"] = c.seqText, c.appliedText
	h["X-Fivm-Lag"] = []string{time.Since(e.At).String()}
}

// read wraps a read handler: the request leases the current epoch — stamped
// on the consistency headers and checked against ?min_epoch — and a readState
// holding its view name and parsed query for exactly as long as the handler
// runs.
func (s *Server) read(h func(http.ResponseWriter, *http.Request, *db.Epoch, *readState)) func(http.ResponseWriter, *http.Request, string) {
	return func(w http.ResponseWriter, r *http.Request, view string) {
		e := s.cfg.DB().Epoch()
		defer e.Release()
		q := s.readStates.Get().(*readState)
		defer func() { s.readStates.Put(q.reset()) }()
		s.setEpochHeaders(w, e)
		q.view = view
		q.parse(r.URL.RawQuery)
		if q.minEpoch != "" {
			min, err := strconv.ParseUint(q.minEpoch, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad min_epoch %q", q.minEpoch)
				return
			}
			if e.Seq < min {
				httpError(w, http.StatusPreconditionFailed,
					"serving epoch %d is behind requested min_epoch %d", e.Seq, min)
				return
			}
		}
		h(w, r, e, q)
	}
}

// decodeBody decodes the request's one JSON value into v (POST /exec and
// /select; /apply has its own decoder): 413 for a body over 32 MiB, 400 for
// anything else that is not exactly one value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxApplyBody))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	badBody(w, err)
	return false
}

// badBody answers a request whose body could not be taken: 413 when it is
// over a size limit (bytes, or tuples in a batch), 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) || errors.Is(err, errTooManyTuples) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, "bad request body: %v", err)
}

// --- read path ------------------------------------------------------------

// handleHealthz answers 200, or 503 "degraded" while the WAL is poisoned: the
// server still serves reads, and refuses writes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, e *db.Epoch, _ *readState) {
	if l := s.cfg.DB().WAL(); l != nil && l.Failure() != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "degraded", "epoch": e.Seq, "wal": l.Failure().Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": e.Seq})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, e *db.Epoch, _ *readState) {
	d := s.cfg.DB()
	// Per-view publish work, read from the pinned epoch (the live counters
	// belong to the maintenance goroutine).
	type viewStats struct {
		PublishedKeys     uint64 `json:"published_keys"`
		ViewsMaterialized int    `json:"views_materialized"`
		PoolFree          int    `json:"pool_free"`
		Reclaimed         uint64 `json:"reclaimed"`
		RowsRetired       int    `json:"rows_retired"`
		RowsReused        uint64 `json:"rows_reused"`
		ScratchKeyBytes   int    `json:"scratch_key_bytes"`
		ScratchTupleBytes int    `json:"scratch_tuple_bytes"`
		TuplesCopied      uint64 `json:"tuples_copied"`
		IndexTableBytes   int    `json:"index_table_bytes"`
		SlabChunks        int    `json:"slab_chunks"`
		ArenaChunks       int    `json:"arena_chunks"`
		ArenaFree         int    `json:"arena_free"`
		ArenaRetired      int    `json:"arena_retired"`
		BackstopReclaims  uint64 `json:"backstop_reclaims"`
	}
	names := e.Views()
	perView := make(map[string]viewStats, len(names))
	for _, name := range names {
		st, _ := e.Stats(name)
		perView[name] = viewStats{PublishedKeys: st.PublishedKeys, ViewsMaterialized: st.ViewCount,
			PoolFree: st.PoolFree, Reclaimed: st.Reclaimed, RowsRetired: st.RowsRetired, RowsReused: st.RowsReused,
			ScratchKeyBytes: st.ScratchKeyBytes, ScratchTupleBytes: st.ScratchTupleBytes,
			TuplesCopied: st.TuplesCopied, IndexTableBytes: st.IndexTableBytes, SlabChunks: st.SlabChunks,
			ArenaChunks: st.Arena.ChunksLive, ArenaFree: st.Arena.ChunksFree, ArenaRetired: st.Arena.ChunksRetired,
			BackstopReclaims: st.Arena.BackstopReclaims}
	}
	// The shared base store, from the same epoch: what the live rows and the
	// pool behind them hold, relation by relation.
	type baseStats struct {
		data.BaseStats
		FreeTupleBytes int `json:"recycled_tuple_bytes"`
	}
	rels, bases := e.BaseStats()
	perBase := make(map[string]baseStats, len(rels))
	for i, rel := range rels {
		sch, _ := d.Schema(rel)
		perBase[rel] = baseStats{bases[i], bases[i].FreeTupleBytes(len(sch))}
	}
	resp := map[string]any{
		"epoch":      e.Seq,
		"applied":    e.Applied,
		"lag":        time.Since(e.At).String(),
		"views":      names,
		"view_stats": perView,
		"base_store": perBase,
		"ingest":     e.Ingest,
		"recycled":   e.Recycled, // epoch headers: allocated climbing means a reader pins or forgets leases
		"follower":   d.Follower(),
		// Heads parseHead took, which allocate nothing, and heads left to http.ReadRequest.
		"netserve": map[string]uint64{"parse_head": s.headsParsed.Load(), "read_request": s.headsRead.Load()},
	}
	if d.Follower() {
		resp["repl_lsn"] = d.ReplLSN()
	}
	if l := d.WAL(); l != nil {
		resp["wal_lsn"] = l.LSN()
		resp["checkpoint"] = e.Checkpoint
	}
	if q := s.cfg.Queue; q != nil {
		resp["queue_len"] = q.Len()
		resp["queue_cap"] = q.Cap()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request, e *db.Epoch, _ *readState) {
	type viewInfo struct {
		Name    string `json:"name"`
		Payload string `json:"payload"`
		Groups  int    `json:"groups"`
	}
	views := []viewInfo{}
	for _, name := range e.Views() {
		vi := viewInfo{Name: name, Payload: "other", Groups: -1}
		if sf := db.SnapshotOf[float64](e, name); sf != nil {
			vi.Payload, vi.Groups = "float64", sf.Result().Len()
		} else if si := db.SnapshotOf[int64](e, name); si != nil {
			vi.Payload, vi.Groups = "int64", si.Result().Len()
		}
		views = append(views, vi)
	}
	writeJSON(w, http.StatusOK, map[string]any{"views": views})
}

// handleView answers a point lookup (scan false: the whole key) or an ordered
// scan (a key prefix) of a scalar view from the request's epoch.
func (s *Server) handleView(scan bool) func(http.ResponseWriter, *http.Request, *db.Epoch, *readState) {
	return func(w http.ResponseWriter, r *http.Request, e *db.Epoch, q *readState) {
		name := q.view
		if q.keyErr != nil {
			httpError(w, http.StatusBadRequest, "%v", q.keyErr)
			return
		}
		limit := maxScan
		if scan && q.limit != "" {
			n, err := strconv.Atoi(q.limit)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, "bad limit %q", q.limit)
				return
			}
			limit = min(limit, n)
		}
		cr := readersOf(w, r)
		var err error
		if sf := db.SnapshotOf[float64](e, name); sf != nil {
			cr.f.PinAt(sf)
			err = answer(q, &cr.f, name, scan, limit, appendFloat)
			cr.f.Close()
		} else if si := db.SnapshotOf[int64](e, name); si != nil {
			cr.i.PinAt(si)
			err = answer(q, &cr.i, name, scan, limit, appendInt)
			cr.i.Close()
		} else if e.Has(name) {
			httpError(w, http.StatusNotImplemented, "view %q has a non-scalar payload", name)
			return
		} else {
			httpError(w, http.StatusNotFound, "unknown view %q", name)
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeBody(w, q.buf)
	}
}

// answer binds the request's key to the pinned view's schema and builds the
// lookup's or the scan's reply in q.buf.
func answer[P any](q *readState, rd *serve.Reader[P], view string, scan bool, limit int, appendP func([]byte, P) []byte) error {
	if err := q.bindKey(view, rd.Result().Schema(), scan); err != nil {
		return err
	}
	if scan {
		rd.Scan(q.key, visit(q, limit, appendP))
		q.rowsBody(view, true)
	} else {
		p, found := rd.Lookup(q.key)
		lookupBody(q, view, p, found, appendP)
	}
	return nil
}

// --- write path -----------------------------------------------------------

// requireQueue rejects writes on a read-only server (no ingest queue).
func (s *Server) requireQueue(w http.ResponseWriter) bool {
	if s.cfg.Queue == nil {
		httpError(w, http.StatusForbidden, "server is read-only (no ingest queue; writes go to the primary)")
		return false
	}
	return true
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	l := s.cfg.DB().WAL()
	switch {
	case errors.Is(err, db.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(max(1, s.retryAfter/time.Second))))
		httpError(w, http.StatusTooManyRequests, "ingest queue full, retry later")
	case errors.Is(err, db.ErrFollower):
		httpError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, db.ErrQueueClosed):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, wal.ErrClosed), l != nil && errors.Is(err, l.Failure()): // a nil Failure matches no error
		// The log refuses appends, poisoned or closed: the server's fault.
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireQueue(w) {
		return
	}
	// Both body readers, parseHead's and net/http's, stop at a declared
	// length: one over the cap is refused unread, and only a chunked body
	// (net/http's alone) needs a MaxBytesReader.
	body := r.Body
	switch {
	case r.ContentLength > maxApplyBody:
		badBody(w, &http.MaxBytesError{Limit: maxApplyBody})
		return
	case r.ContentLength < 0:
		body = http.MaxBytesReader(w, r.Body, maxApplyBody)
	}
	// The batch lives in the request's arena: TryApply returns once it is
	// applied and its epoch published, by when the store and the views have
	// copied what they keep, and the deferred reset rewinds it.
	st := s.applyStates.Get().(*applyState)
	defer func() {
		st.reset()
		s.applyStates.Put(st)
	}()
	batch, tuples, err := st.decode(body)
	if err != nil {
		badBody(w, err)
		return
	}
	if len(batch) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := s.cfg.Queue.TryApply(batch); err != nil {
		s.writeError(w, err)
		return
	}
	e := s.cfg.DB().Epoch()
	defer e.Release()
	s.setEpochHeaders(w, e)
	b := strconv.AppendUint(append(st.out[:0], `{"applied":`...), e.Applied, 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), e.Seq, 10)
	b = appendInt(append(b, `,"tuples":`...), int64(tuples))
	st.out = append(b, "}\n"...)
	writeBody(w, st.out)
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireQueue(w) {
		return
	}
	var req struct {
		SQL string `json:"sql"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "missing sql")
		return
	}
	var status string
	err := s.cfg.Queue.Do(func(d *db.DB) error {
		var err error
		status, err = d.Exec(req.SQL)
		return err
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	e := s.cfg.DB().Epoch()
	defer e.Release()
	s.setEpochHeaders(w, e)
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "epoch": e.Seq})
}

// handleSelect answers a one-shot SELECT: the query is registered as a
// short-lived view on the maintenance goroutine (computing its result
// through the normal backfill path), its first snapshot is captured, and
// the view is dropped — all before other queued writes interleave. The
// rows come from that single consistent snapshot.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireQueue(w) {
		return
	}
	var req struct {
		SQL   string `json:"sql"`
		Limit int    `json:"limit"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "missing sql")
		return
	}
	limit := maxScan
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}
	tmp := fmt.Sprintf("__select_%d", s.selSeq.Add(1))
	var snap *db.Epoch
	err := s.cfg.Queue.Do(func(d *db.DB) error {
		if _, err := db.CreateViewSQL(d, tmp, req.SQL, db.ViewOptions{}); err != nil {
			return err
		}
		snap = d.Epoch()
		return d.DropView(tmp)
	})
	defer snap.Release()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.setEpochHeaders(w, snap)
	sf := db.SnapshotOf[float64](snap, tmp)
	if sf == nil {
		httpError(w, http.StatusInternalServerError, "select result snapshot missing")
		return
	}
	q := s.readStates.Get().(*readState)
	defer func() { s.readStates.Put(q.reset()) }()
	sf.Result().Iterate(visit(q, limit, appendFloat))
	q.rowsBody("", false)
	writeBody(w, q.buf)
}
