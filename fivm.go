// Package fivm is F-IVM: factorized incremental view maintenance for
// analytics over normalized data, reproducing "Incremental View Maintenance
// with Triple Lock Factorization Benefits" (Nikolic & Olteanu, SIGMOD 2018).
//
// Analytical tasks are expressed as group-by aggregate queries over
// relations that map keys to payloads in a task-specific ring. One view-tree
// maintenance machinery serves every task; tasks differ only in the ring and
// the lifting functions:
//
//   - counts and sums: the Z or R rings (IntRing, FloatRing),
//   - gradient computation for linear regression over joins: the degree-m
//     matrix ring of (count, sums, cofactor matrix) triples (CofactorRing),
//   - conjunctive query results in listing or factorized form (CQResult).
//
// The API is fivm.DB — base relations owned once, any number of maintained
// views over them, one ingest per batch, cross-view epochs for lock-free
// readers; the implementation lives under internal/:
//
//	d, _ := fivm.Open(fivm.SQLCatalog{
//	    "R": fivm.NewSchema("A", "B"),
//	    "S": fivm.NewSchema("A", "C"),
//	}, fivm.DBOptions{})
//	q := fivm.MustQuery("byA", fivm.NewSchema("A"),
//	    fivm.Rel("R", fivm.NewSchema("A", "B")),
//	    fivm.Rel("S", fivm.NewSchema("A", "C")))
//	v, _ := fivm.CreateView[int64](d, "byA", q, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{})
//	_ = d.Apply([]fivm.DBUpdate{fivm.InsertInto("R", fivm.Ints(1, 10))})
//	// read via e := d.Epoch() + fivm.ViewSnapshotOf, then e.Release(), or
//	// via fivm.ViewReader; views can be created (with backfill) and dropped
//	// mid-stream, also via SQL DDL (d.Exec("CREATE VIEW ... AS SELECT ...")).
//	_ = v
//
// Every published epoch is a lease (DBEpoch, ViewSnapshot, the pin of a
// Reader, CQResult.Snapshot): the publication pointer holds one reference
// while the epoch is current and every handle you are given one more;
// Release (Close on a Reader) returns the epoch's storage at the writer's
// next publish. Releasing is optional — a forgotten handle stays readable
// while reachable and costs a full garbage-collection cycle to reclaim — but
// an entry, or a payload of a ring that accumulates in place, read from an
// epoch is valid until that Release, not "while reachable": copy out what
// must outlive it.
package fivm

import (
	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/factorized"
	"fivm/internal/ivm"
	"fivm/internal/matrix"
	"fivm/internal/mcm"
	"fivm/internal/netserve"
	"fivm/internal/query"
	"fivm/internal/regression"
	"fivm/internal/ring"
	"fivm/internal/serve"
	"fivm/internal/sqlparse"
	"fivm/internal/vorder"
	"fivm/internal/wal"
)

// --- data model ---------------------------------------------------------

// Value is a single key attribute value (int64, float64, or string).
type Value = data.Value

// Tuple is an ordered list of values over a schema.
type Tuple = data.Tuple

// Schema is an ordered list of distinct variable names.
type Schema = data.Schema

// Relation maps key tuples to ring payloads with finite support.
type Relation[P any] = data.Relation[P]

// LiftFunc maps a variable's value into the payload ring.
type LiftFunc[P any] = data.LiftFunc[P]

// Value constructors and helpers.
var (
	Int       = data.Int
	Float     = data.Float
	String    = data.String
	Ints      = data.Ints
	Floats    = data.Floats
	NewSchema = data.NewSchema
)

// NewRelation creates an empty relation over a ring and schema: a delta for
// CQResult.ApplyDelta.
func NewRelation[P any](r Ring[P], schema Schema) *Relation[P] {
	return data.NewRelation[P](r, schema)
}

// --- rings ----------------------------------------------------------------

// Ring is the payload algebra interface.
type Ring[T any] = ring.Ring[T]

// IntRing is Z; FloatRing is R.
type (
	IntRing   = ring.Int
	FloatRing = ring.Float
)

// CofactorRing is the degree-m matrix ring of regression triples.
type CofactorRing = ring.Cofactor

// Triple is a (count, sums, cofactor matrix) compound aggregate.
type Triple = ring.Triple

// LiftValue is the regression lifting g_j(x) = (1, s_j=x, Q_jj=x²).
var LiftValue = ring.LiftValue

// CountLift lifts every value to 1 in the Z ring (COUNT queries).
func CountLift(string, Value) int64 { return 1 }

// --- queries and variable orders -------------------------------------------

// Query is a natural join with group-by (free) variables.
type Query = query.Query

// RelDef names a relation and its schema.
type RelDef = query.RelDef

// Rel builds a relation definition.
func Rel(name string, schema Schema) RelDef { return RelDef{Name: name, Schema: schema} }

// MustQuery builds a query over relation definitions; it panics on an
// invalid one.
var MustQuery = query.MustNew

// SQLCatalog maps relation names to schemas: the base relations of Open.
type SQLCatalog = sqlparse.Catalog

// SQLError is a SQL parse failure with its position (byte offset and the
// offending token), as DB.Exec returns it.
type SQLError = sqlparse.ParseError

// Order is a variable order (the F-IVM analogue of a query plan); hand one
// to a view through ViewOptions.Order.
type Order = vorder.Order

// V builds an order node; MustOrder assembles an order from its roots.
var (
	V         = vorder.V
	MustOrder = vorder.MustNew
)

// --- the database: fivm.DB ----------------------------------------------------

// DB is the database-style top level: it owns the base relations once,
// maintains any number of registered views over them (each with its own
// ring, lifting, variable order, and maintenance strategy), ingests every
// update batch exactly once via Apply, and publishes one consistent
// cross-view Epoch per batch for lock-free readers. Views can be created
// (with backfill from the current bases) and dropped mid-stream.
//
// Open/CreateView/Apply/DropView/Exec are single-writer (one maintenance
// goroutine); Epoch, snapshots, and readers are safe from any goroutine.
type DB = db.DB

// DBOptions configures Open.
type DBOptions = db.Options

// ViewOptions configures one registered view: its variable order (nil uses
// the cost-based optimizer) and the engine's optimizer flags.
type ViewOptions = db.ViewOptions

// View is the typed handle CreateView returns: Snapshot/Reader for reads,
// plus introspection.
type View[P any] = db.View[P]

// DBEpoch is one published cross-view state: an immutable set of per-view
// snapshots all reflecting the same applied prefix of the update stream.
// DB.Epoch returns a lease: Release it once read (see the package comment).
type DBEpoch = db.Epoch

// ViewSnapshot is one view's published state inside an epoch — exactly the
// state after some whole applied batch: Result is the view's rows.
type ViewSnapshot[P any] = ivm.ViewSnapshot[P]

// Reader is a lock-free read handle pinned to one epoch of a view: point
// lookups by group-by key, prefix scans over the result, and explicit
// Refresh with monotonic (never regressing) epochs. One Reader per reading
// goroutine; it owns a lease on the epoch it pins, which Close gives back.
type Reader[P any] = serve.Reader[P]

// DBUpdate is one element of an applied batch: tuples of a base relation
// with a signed multiplicity (negative deletes; zero means +1). Tuple
// storage is adopted by the DB; callers must not mutate it after Apply.
type DBUpdate = db.Update

// Open creates a DB over the cataloged base relations.
func Open(cat SQLCatalog, opts DBOptions) (*DB, error) { return db.Open(cat, opts) }

// InsertInto and DeleteFrom build insertion / deletion updates for DB.Apply.
var (
	InsertInto = db.Insert
	DeleteFrom = db.Delete
)

// CreateView registers a maintained view on the DB: a group-by aggregate
// query over its base relations with the view's own payload ring and
// lifting. Created views are backfilled from the current base contents, so
// mid-stream registration yields exactly the state a from-the-start view
// would have. (A package function, not a method: each view carries its own
// payload type.) SQL views are created through DB.Exec.
func CreateView[P any](d *DB, name string, q Query, r Ring[P], lift LiftFunc[P], opts ViewOptions) (*View[P], error) {
	return db.CreateView[P](d, name, q, r, lift, opts)
}

// ViewSnapshotOf returns the named view's snapshot within a cross-view
// epoch, or nil when the epoch does not carry it (or the payload type does
// not match). The snapshot is the epoch's: valid until the epoch's Release.
func ViewSnapshotOf[P any](e *DBEpoch, view string) *ViewSnapshot[P] {
	return db.SnapshotOf[P](e, view)
}

// ViewReader returns a Reader over the named DB view pinned at the latest
// cross-view epoch; Refresh advances through the view's live publications,
// Close gives the pin back. One reader per reading goroutine.
func ViewReader[P any](d *DB, view string) (*Reader[P], error) {
	return db.ReaderFor[P](d, view)
}

// --- durability: WAL, checkpoints, recovery -----------------------------------

// DurabilityOptions enables the DB's write-ahead log: every applied batch is
// logged before any in-memory state advances, SQL-defined views persist in
// the on-disk catalog, and Open recovers the exact pre-crash state (latest
// checkpoint + replayed tail; DB.Recovery reports it). Set
// DBOptions.Durability; nil keeps the DB purely in-memory.
type DurabilityOptions = db.DurabilityOptions

// FsyncPolicy controls when logged batches are forced to stable storage.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies: every record (an ApplyQueue group is one), or left to the
// OS.
const (
	FsyncAlways = wal.FsyncAlways
	FsyncNever  = wal.FsyncNever
)

// WALFS is the filesystem interface the WAL writes through
// (DurabilityOptions.FS); implement it (or wrap an existing one) to
// intercept durability I/O.
type WALFS = wal.VFS

// NewMemWALFS returns an empty in-memory WALFS with crash simulation: its
// Crash keeps only synced bytes, so a test can cut power to a database on
// purpose.
var NewMemWALFS = wal.NewMemFS

// --- network serving ------------------------------------------------------------

// ApplyQueue is the bounded single-consumer ingest queue in front of a DB's
// maintenance goroutine (ServeConfig.Queue): TryApply fails fast with
// ErrQueueFull when the queue is full (the HTTP layer maps it to 429 +
// Retry-After), Apply blocks, and Do runs an arbitrary function on the
// maintenance goroutine (DDL).
type ApplyQueue = db.ApplyQueue

// NewApplyQueue starts a queue of the given depth over the DB; Close drains
// and stops it.
var NewApplyQueue = db.NewApplyQueue

// Queue and follower sentinel errors.
var (
	// ErrQueueFull is TryApply's backpressure signal.
	ErrQueueFull = db.ErrQueueFull
	// ErrQueueClosed reports an enqueue after Close.
	ErrQueueClosed = db.ErrQueueClosed
	// ErrFollower rejects direct writes on a follower-mode DB — its state
	// advances only through the replication stream.
	ErrFollower = db.ErrFollower
)

// ServeConfig configures the stdlib HTTP server over a DB: point lookups,
// prefix scans, one-shot SELECT, DDL, batch ingest with backpressure, and
// epoch/staleness headers (X-Fivm-Epoch, X-Fivm-Applied, X-Fivm-Lag) on
// every response. A nil Queue makes the server read-only (followers).
type ServeConfig = netserve.Config

// NewHTTPServer builds the serving front end: Serve on a listener, Shutdown
// for graceful drain. The DB field of ServeConfig is a func so followers can
// swap instances after a checkpoint re-bootstrap.
var NewHTTPServer = netserve.New

// --- applications -------------------------------------------------------------

// NewCofactorModel maintains the regression aggregates of a join (count,
// sums and cofactor matrix in one CofactorRing payload); Train fits linear
// models from them without touching the data again.
var NewCofactorModel = regression.NewCofactorModel

// TrainOptions configures CofactorModel.Train.
type TrainOptions = regression.TrainOptions

// Dense is a row-major matrix: the input of the matrix chain applications.
type Dense = matrix.Dense

// Matrix chain multiplication over F-IVM (hash relations) and dense
// backends, and their inputs.
var (
	NewHashChain    = mcm.NewHashChain
	NewDenseChain   = mcm.NewDenseChain
	RandomDense     = matrix.Random
	DecomposeMatrix = matrix.Decompose
)

// Conjunctive query results in the three representations of Section 6.3.
type (
	CQResult = factorized.Result
	CQMode   = factorized.Mode
)

// Result representation modes.
const (
	ListKeys     = factorized.ListKeys
	ListPayloads = factorized.ListPayloads
	FactPayloads = factorized.FactPayloads
)

// NewCQResult builds a maintained conjunctive query result.
var NewCQResult = factorized.New

// --- datasets ----------------------------------------------------------------

// The Housing dataset of the paper's experiments (a scaled-down generator)
// and its variable order, and the round-robin update stream over a dataset.
var (
	GenHousing       = datasets.GenHousing
	DefaultHousing   = datasets.DefaultHousing
	HousingOrder     = datasets.HousingOrder
	RoundRobinStream = datasets.RoundRobinStream
)
