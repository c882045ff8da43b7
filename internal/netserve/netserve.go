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
// Connections are stateful only as an optimization: each accepted
// connection carries reusable serve.Reader handles (key-encoding scratch
// kept warm across requests) re-pinned to the request's epoch. A request
// releases its epoch, and the reader's pin with it, before it returns: an
// idle connection holds no snapshot storage.
//
// Allocation: a lookup or a scan allocates what net/http allocates for any
// request that sets a response header (about 2.2 KiB: reading the request,
// the first insert into the header map, the header clone at WriteHeader)
// plus the X-Fivm-Lag string. The query is parsed in one pass into a pooled
// per-request struct, the reply appended into its buffer, and the epoch's
// header values are formatted once per epoch.
package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/serve"
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

	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration

	// MaxScan caps rows returned by one scan or SELECT (default 10000).
	MaxScan int
}

// Connection limits, fixed: a client gets readHeaderTimeout to finish sending
// a request's headers, readTimeout to finish sending the whole request — a
// body is capped in bytes (maxApplyBody) and, by this, in time — and a
// kept-alive connection idleTimeout to send the next request, after which the
// server closes it. Nothing bounds a response, whose size varies by orders of
// magnitude.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// Server is the HTTP server. Create with New, start with Serve, stop with
// Shutdown (which drains in-flight requests before returning).
type Server struct {
	cfg    Config
	hs     *http.Server
	selSeq atomic.Uint64
	// applyStates pools what POST /apply decodes into (*applyState): body
	// buffer, envelope and batch arena, taken per request and given back,
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
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxScan <= 0 {
		cfg.MaxScan = 10000
	}
	s := &Server{cfg: cfg}
	s.readStates.New = func() any { return new(readState).reset() }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.read(s.handleHealthz))
	mux.HandleFunc("GET /stats", s.read(s.handleStats))
	mux.HandleFunc("GET /views", s.read(s.handleViews))
	mux.HandleFunc("GET /view/{name}/lookup", s.read(s.handleView(false)))
	mux.HandleFunc("GET /view/{name}/scan", s.read(s.handleView(true)))
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("POST /select", s.handleSelect)
	mux.HandleFunc("POST /apply", s.handleApply)
	s.hs = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		// Each accepted connection gets its own reader cache; see readersOf.
		ConnContext: func(ctx context.Context, _ net.Conn) context.Context {
			return context.WithValue(ctx, readersKey{}, &connReaders{})
		},
	}
	return s, nil
}

// Handler exposes the route table (tests and in-process embedding).
// Served this way, requests lack the per-connection reader cache and fall
// back to per-request readers.
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Serve accepts connections on l until Shutdown. Like http.Server.Serve it
// always returns a non-nil error; after Shutdown it is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully drains the server: it stops accepting connections and
// waits for in-flight requests to finish (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error { return s.hs.Shutdown(ctx) }

// connReaders is the per-connection serve.Reader cache: one reader per
// payload type, pinned to a request's epoch for the request only. The mutex
// is for the HTTP/2 case where one connection multiplexes concurrent requests.
type connReaders struct {
	mu sync.Mutex
	f  serve.Reader[float64]
	i  serve.Reader[int64]
}

type readersKey struct{}

func readersOf(r *http.Request) *connReaders {
	if cr, ok := r.Context().Value(readersKey{}).(*connReaders); ok {
		return cr
	}
	return &connReaders{} // no ConnContext (embedded handler): per-request
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
// formatted once and shared by every response from it. The numbers are the
// key, so a follower's swapped DB cannot be served another's.
type epochHeaders struct {
	seq, applied         uint64
	seqText, appliedText []string
}

func (s *Server) setEpochHeaders(w http.ResponseWriter, e *db.Epoch) {
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
// holding its parsed query for exactly as long as the handler runs.
func (s *Server) read(h func(http.ResponseWriter, *http.Request, *db.Epoch, *readState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := s.cfg.DB().Epoch()
		defer e.Release()
		q := s.readStates.Get().(*readState)
		defer func() { s.readStates.Put(q.reset()) }()
		s.setEpochHeaders(w, e)
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, e *db.Epoch, _ *readState) {
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
		ArenaBlocks       int    `json:"arena_blocks"`
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
			ArenaBlocks: st.Arena.BlocksLive, ArenaFree: st.Arena.BlocksFree, ArenaRetired: st.Arena.BlocksRetired,
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
		name := r.PathValue("name")
		if q.keyErr != nil {
			httpError(w, http.StatusBadRequest, "%v", q.keyErr)
			return
		}
		limit := s.cfg.MaxScan
		if scan && q.limit != "" {
			n, err := strconv.Atoi(q.limit)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, "bad limit %q", q.limit)
				return
			}
			limit = min(limit, n)
		}
		cr := readersOf(r)
		cr.mu.Lock()
		defer cr.mu.Unlock()
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
	switch {
	case errors.Is(err, db.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(max(1, s.cfg.RetryAfter/time.Second))))
		httpError(w, http.StatusTooManyRequests, "ingest queue full, retry later")
	case errors.Is(err, db.ErrFollower):
		httpError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, db.ErrQueueClosed):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if !s.requireQueue(w) {
		return
	}
	// The batch lives in the request's arena: TryApply returns once it is
	// applied and its epoch published, by when the store and the views have
	// copied what they keep, and the deferred reset rewinds it.
	st, _ := s.applyStates.Get().(*applyState)
	if st == nil {
		st = newApplyState()
	}
	defer func() {
		st.reset()
		s.applyStates.Put(st)
	}()
	batch, tuples, err := st.decode(http.MaxBytesReader(w, r.Body, maxApplyBody))
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

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
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
	limit := s.cfg.MaxScan
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
