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
//   - conjunctive query results in listing or factorized form: the
//     relational data ring (RelRing).
//
// The package is a facade re-exporting the library's public surface; the
// implementation lives under internal/. The database-style top level is
// fivm.DB — base relations owned once, any number of maintained views over
// them, one ingest per batch, cross-view epochs for lock-free readers:
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
// The per-engine layer underneath (fivm.NewEngine and friends) remains
// fully supported; feed deltas with eng.ApplyDeltas and read via
// eng.Snapshot() or a fivm.NewReader handle for concurrent serving —
// eng.Result() is a deprecated live handle, only safe quiescently on the
// maintenance goroutine.
//
// Every published epoch is a lease (ViewSnapshot, DBEpoch, Reader,
// CQResultSnapshot): the publication pointer holds one reference while the
// epoch is current and every handle you are given one more; Release (Close
// on a Reader) returns the epoch's storage at the writer's next publish.
// Releasing is optional — a forgotten handle stays readable while reachable
// and costs a full garbage-collection cycle to reclaim — but an *Entry, or a
// payload of a ring that accumulates in place, read from an epoch is valid
// until that Release, not "while reachable": copy out what must outlive it.
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
	"fivm/internal/replica"
	"fivm/internal/ring"
	"fivm/internal/serve"
	"fivm/internal/sqlparse"
	"fivm/internal/viewtree"
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

// Entry is one key/payload pair.
type Entry[P any] = data.Entry[P]

// Multiset is a relation over Z: the element type of the relational ring.
type Multiset = data.Multiset

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

// NewRelation creates an empty relation over a ring and schema.
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

// DegreeMapRing is the degree-indexed aggregate encoding (SQL-OPT).
type DegreeMapRing = ring.DegreeMap

// RelRing is the relational data ring F[Z].
type RelRing = data.RelRing

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

// NewQuery and MustQuery build queries.
var (
	NewQuery  = query.New
	MustQuery = query.MustNew
)

// SQLCatalog maps relation names to schemas for the SQL front-end.
type SQLCatalog = sqlparse.Catalog

// ParsedSQL is a parsed SQL query: the join-aggregate query plus liftings.
type ParsedSQL = sqlparse.Parsed

// ParseSQL parses the paper's SQL dialect (natural joins, one SUM over a
// product of columns, GROUP BY) against a catalog of relation schemas.
// Parse failures are *SQLError values carrying the offending offset and
// token.
var ParseSQL = sqlparse.Parse

// SQLError is a SQL parse failure with its position (byte offset and the
// offending token).
type SQLError = sqlparse.ParseError

// SQLStatement is one parsed statement: a SELECT query or a CREATE VIEW /
// DROP VIEW DDL command; SQLStmtKind discriminates.
type (
	SQLStatement = sqlparse.Statement
	SQLStmtKind  = sqlparse.StmtKind
)

// Statement kinds.
const (
	StmtSelect     = sqlparse.StmtSelect
	StmtCreateView = sqlparse.StmtCreateView
	StmtDropView   = sqlparse.StmtDropView
)

// ParseSQLStatement parses one statement of the dialect: SELECT ...,
// CREATE VIEW <name> AS SELECT ..., or DROP VIEW <name>.
var ParseSQLStatement = sqlparse.ParseStatement

// Order is a variable order (the F-IVM analogue of a query plan).
type Order = vorder.Order

// OrderNode is one variable in an order.
type OrderNode = vorder.Node

// Variable order constructors: V builds nodes, Chain builds paths,
// MustOrder assembles orders, BuildOrder derives one heuristically.
var (
	V          = vorder.V
	Chain      = vorder.Chain
	MustOrder  = vorder.MustNew
	NewOrder   = vorder.New
	BuildOrder = vorder.Build
)

// --- statistics and the cost-based optimizer --------------------------------

// Stats is the database statistics collector the optimizer consumes:
// per-relation cardinalities, per-variable distinct-count sketches, and
// observed delta rates, maintained incrementally by relations and engines.
type Stats = data.Stats

// RelStats is one relation's statistics.
type RelStats = data.RelStats

// NewStats creates an empty collector.
var NewStats = data.NewStats

// AnalyzeRelation bulk-observes a relation's contents into a collector (the
// ANALYZE path used to seed self-planning engines).
func AnalyzeRelation[P any](st *Stats, name string, r *Relation[P]) {
	data.ObserveRelation(st, name, r)
}

// CostModel estimates view sizes and per-update maintenance costs for
// candidate variable orders; OrderCost is its per-order breakdown.
type (
	CostModel = vorder.CostModel
	OrderCost = vorder.OrderCost
)

// NewCostModel builds a cost model from collected statistics.
var NewCostModel = vorder.NewCostModel

// OrderChooseOptions configures ChooseOrder.
type OrderChooseOptions = vorder.ChooseOptions

// ChooseOrder selects a variable order for a query with the cost-based
// optimizer. Engines also accept a nil Order and plan for themselves —
// EngineOptions.Stats seeds the decision, EngineOptions.CostMaterialize
// enables cost-based materialization, and EngineOptions.AutoReoptimize adds
// mid-stream re-planning with state migration.
var ChooseOrder = vorder.Choose

// ViewNode is one view in a view tree.
type ViewNode = viewtree.Node

// --- the engine -------------------------------------------------------------

// Engine is the F-IVM maintainer.
type Engine[P any] = ivm.Engine[P]

// EngineOptions configures materialization, chain composition, indicator
// projections, and payload transforms.
type EngineOptions[P any] = ivm.Options[P]

// Maintainer is the interface all maintenance strategies implement. Besides
// single-relation ApplyDelta, every strategy supports batched updates via
// ApplyDeltas, which coalesces same-relation deltas and traverses each
// maintenance path once per batch.
type Maintainer[P any] = ivm.Maintainer[P]

// NamedDelta is one element of a batched update: a relation name and its
// delta. Feed a slice of these to a Maintainer's ApplyDeltas.
type NamedDelta[P any] = ivm.NamedDelta[P]

// FactoredDelta is an update expressed as a product of factors.
type FactoredDelta[P any] = ivm.FactoredDelta[P]

// NewEngine builds an F-IVM engine.
func NewEngine[P any](q Query, o *Order, r Ring[P], lift LiftFunc[P], opts EngineOptions[P]) (*Engine[P], error) {
	return ivm.New[P](q, o, r, lift, opts)
}

// ParallelEngine is the sharded parallel maintainer: it hash-partitions the
// database by the join variable covered by the most relations, runs one
// inner maintainer per shard on a fixed worker pool, and reduces shard
// results key-wise. Build one with NewParallel; call Close when done to
// stop the pool.
type ParallelEngine[P any] = ivm.Parallel[P]

// NewParallel builds a sharded parallel maintainer over `workers` shards,
// each an independent maintainer produced by factory. workers <= 1 (or a
// query with nothing to shard on) is one shard through the same routing,
// dispatch and reduction; the count is not clamped to the host's cores —
// each batch's dispatch runs at most GOMAXPROCS shards at a time.
func NewParallel[P any](q Query, r Ring[P], workers int, factory func() (Maintainer[P], error)) (*ParallelEngine[P], error) {
	return ivm.NewParallel[P](q, r, workers, factory)
}

// MutableRing is the optional ring extension for allocation-free in-place
// payload accumulation (implemented by IntRing, FloatRing, CofactorRing and
// DegreeMapRing). Relations detect it automatically and switch to owned,
// zero-alloc payload accumulation.
type MutableRing[T any] = ring.Mutable[T]

// ShardedRelation is a relation hash-partitioned on one column; shards of
// relations partitioned on a shared join column join shard-locally.
type ShardedRelation[P any] = data.Sharded[P]

// NewShardedRelation creates an empty n-way sharded relation partitioned on
// column col.
func NewShardedRelation[P any](r Ring[P], schema Schema, col string, n int) (*ShardedRelation[P], error) {
	return data.NewSharded[P](r, schema, col, n)
}

// SplitRelation partitions a relation's contents into n fresh relations by
// the hash of column col.
func SplitRelation[P any](r *Relation[P], col string, n int) ([]*Relation[P], error) {
	return data.Split(r, col, n)
}

// --- serving reads: epoch-based snapshots -----------------------------------

// RelationSnapshot is an immutable point-in-time copy of a Relation,
// readable lock-free from any number of goroutines: point lookups by key,
// ordered iteration, and prefix scans over leading variables. Reached through
// a ViewSnapshot, it is valid until that epoch's Release.
type RelationSnapshot[P any] = data.RelationSnapshot[P]

// ViewSnapshot is one published epoch of a maintainer's state — exactly the
// state after some whole applied batch. It carries the query result, always;
// an Engine adds the catalogue of its materialized views to the epochs it
// publishes after Engine.Catalog asked for it (consistent with the result,
// from the next batch on). Every Maintainer publishes one epoch per batch
// once serving is enabled (first Snapshot call), via a single atomic
// epoch-pointer swap. Snapshot and Catalog return leases: Release them (see
// the package comment).
type ViewSnapshot[P any] = ivm.ViewSnapshot[P]

// SnapshotSource is anything that publishes view snapshots; every
// Maintainer qualifies.
type SnapshotSource[P any] = serve.Source[P]

// Reader is a lock-free read handle pinned to one snapshot epoch: point
// lookups by group-by key, prefix scans over the result, and explicit
// Refresh with monotonic (never regressing) epochs. One Reader per reading
// goroutine; it owns a lease on the epoch it pins, which Close gives back.
type Reader[P any] = serve.Reader[P]

// NewReader pins the source's current epoch. Enable publication first by
// calling Snapshot once from the maintenance goroutine (after Init);
// NewReader itself may then be called from any goroutine.
func NewReader[P any](src SnapshotSource[P]) *Reader[P] {
	return serve.NewReader[P](src)
}

// CQResultSnapshot is an epoch-pinned conjunctive query result: counting and
// (factorized) enumeration against one consistent snapshot, safe under
// concurrent maintenance. Obtain one from CQResult.Snapshot; Release it.
type CQResultSnapshot = factorized.ResultSnapshot

// Competitor strategies (first-order IVM, DBToaster-style recursive IVM,
// and re-evaluation), exposed for benchmarking and comparison.
func NewFirstOrder[P any](q Query, o *Order, r Ring[P], lift LiftFunc[P]) (Maintainer[P], error) {
	return ivm.NewFirstOrder[P](q, o, r, lift)
}

// NewRecursive builds DBToaster-style fully recursive IVM.
func NewRecursive[P any](q Query, r Ring[P], lift LiftFunc[P], updatable []string) (Maintainer[P], error) {
	return ivm.NewRecursive[P](q, r, lift, updatable)
}

// NewReEval builds the re-evaluation baseline.
func NewReEval[P any](q Query, o *Order, r Ring[P], lift LiftFunc[P]) (Maintainer[P], error) {
	return ivm.NewReEval[P](q, o, r, lift)
}

// --- the database surface: fivm.DB -------------------------------------------

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
// the cost-based optimizer), Workers for sharded parallel maintenance, and
// the engine's optimizer flags.
type ViewOptions = db.ViewOptions

// View is the typed handle CreateView returns: Snapshot/Reader for reads,
// plus introspection.
type View[P any] = db.View[P]

// DBEpoch is one published cross-view state: an immutable set of per-view
// snapshots all reflecting the same applied prefix of the update stream.
// DB.Epoch returns a lease: Release it once read (see the package comment).
type DBEpoch = db.Epoch

// DBUpdate is one element of an applied batch: tuples of a base relation
// with a signed multiplicity (negative deletes; zero means +1). Tuple
// storage is adopted by the DB; callers must not mutate it after Apply.
type DBUpdate = db.Update

// ViewMaintStats is a view's cumulative maintenance accounting inside a DB.
type ViewMaintStats = db.ViewStats

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
// payload type.)
func CreateView[P any](d *DB, name string, q Query, r Ring[P], lift LiftFunc[P], opts ViewOptions) (*View[P], error) {
	return db.CreateView[P](d, name, q, r, lift, opts)
}

// CreateSQLView registers a float-ring view from SQL text: either
// "CREATE VIEW <name> AS SELECT ..." or a bare SELECT plus an explicit
// name. DB.Exec drives the same path from DDL statements.
func CreateSQLView(d *DB, name, sql string, opts ViewOptions) (*View[float64], error) {
	return db.CreateViewSQL(d, name, sql, opts)
}

// ViewSnapshotOf returns the named view's snapshot within a cross-view
// epoch, or nil when the epoch does not carry it (or the payload type does
// not match). The snapshot is the epoch's: valid until the epoch's Release.
func ViewSnapshotOf[P any](e *DBEpoch, view string) *ViewSnapshot[P] {
	return db.SnapshotOf[P](e, view)
}

// ViewReader returns a serve.Reader over the named DB view pinned at the
// latest cross-view epoch; Refresh advances through the view's live
// publications, Close gives the pin back. One reader per reading goroutine.
func ViewReader[P any](d *DB, view string) (*Reader[P], error) {
	return db.ReaderFor[P](d, view)
}

// NewReaderAt pins a reader to an explicitly chosen snapshot of a source
// (how cross-view consistent read sets are assembled).
func NewReaderAt[P any](src SnapshotSource[P], snap *ViewSnapshot[P]) *Reader[P] {
	return serve.NewReaderAt[P](src, snap)
}

// --- durability: WAL, checkpoints, recovery -----------------------------------

// DurabilityOptions enables the DB's write-ahead log: every applied batch is
// logged before any in-memory state advances, SQL-defined views persist in
// the on-disk catalog, and Open recovers the exact pre-crash state (latest
// checkpoint + replayed tail). Set DBOptions.Durability; nil keeps the DB
// purely in-memory.
type DurabilityOptions = db.DurabilityOptions

// RecoveryInfo reports what Open recovered from the WAL directory; read it
// via DB.Recovery (nil when durability is off or nothing was recovered).
type RecoveryInfo = db.RecoveryInfo

// FsyncPolicy controls when logged batches are forced to stable storage.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies: every record, at most once per interval, or left to the OS.
const (
	FsyncAlways   = wal.FsyncAlways
	FsyncInterval = wal.FsyncInterval
	FsyncNever    = wal.FsyncNever
)

// ParseFsync parses a policy name ("always", "interval", "never").
var ParseFsync = wal.ParseFsync

// WALFS is the filesystem interface the WAL writes through; implement it (or
// wrap an existing one) to intercept durability I/O.
type WALFS = wal.VFS

// MemWALFS is the in-memory filesystem with crash simulation (Crash keeps
// only synced bytes); FaultWALFS injects write/sync/create/close failures
// into any WALFS. Both are how the durability test-suite — and yours — crash
// a database on purpose.
type (
	MemWALFS   = wal.MemVFS
	FaultWALFS = wal.FaultFS
)

// In-memory and fault-injecting filesystem constructors.
var (
	NewMemWALFS   = wal.NewMemFS
	NewFaultWALFS = wal.NewFaultFS
)

// --- network serving & replication --------------------------------------------

// ApplyQueue is the bounded single-consumer ingest queue in front of a DB's
// maintenance goroutine: TryApply fails fast with ErrQueueFull when the
// queue is full (the HTTP layer maps it to 429 + Retry-After), Apply blocks,
// and Do runs an arbitrary function on the maintenance goroutine (DDL).
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

// HTTPServer is the serving front end; Serve on a listener, Shutdown for
// graceful drain.
type HTTPServer = netserve.Server

// NewHTTPServer builds the server. The DB field is a func so followers can
// swap instances after a checkpoint re-bootstrap.
var NewHTTPServer = netserve.New

// ReplicationPrimary streams a durable DB's WAL frames verbatim to
// follower connections: catchup-from-LSN handshake, live tail fan-out, and
// checkpoint transfer when the requested position was pruned.
type ReplicationPrimary = replica.Primary

// NewReplicationPrimary builds a primary over a durable DB and a listener;
// Serve accepts followers until Close.
var NewReplicationPrimary = replica.NewPrimary

// ReplicationFollower maintains a follower-mode DB from a primary's stream:
// it applies shipped records through the normal apply/DDL paths, publishes
// the same epoch sequence, reconnects with backoff, resumes from its last
// LSN, and re-bootstraps from a transferred checkpoint when behind a prune.
type ReplicationFollower = replica.Follower

// FollowerOptions configures NewReplicationFollower: primary address,
// catalog, and (for durable followers that survive restarts) a WAL
// directory.
type FollowerOptions = replica.FollowerConfig

// NewReplicationFollower opens the follower DB; Run drives the stream until
// the context ends, DB returns the current instance for serving reads.
var NewReplicationFollower = replica.NewFollower

// --- applications -------------------------------------------------------------

// CofactorModel maintains regression aggregates over a join; Model is a
// trained linear model.
type (
	CofactorModel = regression.CofactorModel
	TrainOptions  = regression.TrainOptions
	Model         = regression.Model
)

// NewCofactorModel builds a cofactor maintenance engine.
var NewCofactorModel = regression.NewCofactorModel

// Matrix chain multiplication over F-IVM and dense backends.
type (
	HashChain  = mcm.HashChain
	DenseChain = mcm.DenseChain
	Dense      = matrix.Dense
	RankOne    = matrix.RankOne
)

// Matrix chain constructors and helpers.
var (
	NewHashChain    = mcm.NewHashChain
	NewDenseChain   = mcm.NewDenseChain
	NewDense        = matrix.NewDense
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

// Dataset bundles a generated workload; Batch is one stream update;
// WindowedBatch marks sliding-window deletions.
type (
	Dataset       = datasets.Dataset
	Batch         = datasets.Batch
	WindowedBatch = datasets.WindowedBatch
)

// WindowedStream turns one relation into a sliding-window insert/delete
// stream.
var WindowedStream = datasets.WindowedStream

// Dataset configuration types.
type (
	RetailerConfig = datasets.RetailerConfig
	HousingConfig  = datasets.HousingConfig
	TwitterConfig  = datasets.TwitterConfig
)

// Dataset generators and stream synthesis.
var (
	GenRetailer      = datasets.GenRetailer
	GenHousing       = datasets.GenHousing
	GenTwitter       = datasets.GenTwitter
	DefaultRetailer  = datasets.DefaultRetailer
	DefaultHousing   = datasets.DefaultHousing
	DefaultTwitter   = datasets.DefaultTwitter
	RoundRobinStream = datasets.RoundRobinStream
	SingleRelStream  = datasets.SingleRelationStream
	RetailerQuery    = datasets.RetailerQuery
	HousingQuery     = datasets.HousingQuery
	TriangleQuery    = datasets.TriangleQuery
	RetailerOrder    = datasets.RetailerOrder
	HousingOrder     = datasets.HousingOrder
	TriangleOrder    = datasets.TriangleOrder
)
