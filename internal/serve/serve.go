// Package serve is the read path over live-maintained views: epoch-pinned
// reader handles with snapshot isolation.
//
// The F-IVM engine in internal/ivm keeps its result continuously up to date,
// but the engine's Result accessor
// hands out a live relation that is unsafe to read while deltas stream in.
// serve closes that gap: once a maintainer's snapshot publication is enabled (one Snapshot call from the
// maintenance goroutine, typically right after Init), every applied batch
// publishes an immutable ViewSnapshot of the result with an atomic pointer
// swap, and any number of Reader goroutines can pin an epoch and read it
// lock-free — point lookups by group-by key, ordered prefix scans, and
// whole-result iteration — each read observing exactly the state after some
// whole batch, never a torn mid-batch state. A Reader reads the result; an
// engine's internal views are reachable only through the ViewSnapshot of an
// engine that was asked for its catalogue (ivm.Engine.Catalog).
//
// Readers never block maintenance and maintenance never blocks readers; the
// only coordination is the lease a Reader owns on the epoch it pins (see
// ivm.ViewSnapshot): Refresh, PinAt and Close give it back, which returns the
// rows and chunks only it reads at the writer's next publish. Closing is optional — a dropped
// reader leaves its epoch to the garbage collector, a full cycle later — but
// an *Entry or an in-place ring's payload read through the reader is valid
// only until the pin moves. Freshness is the reader's choice of when to
// Refresh, and Lag reports how far behind the pinned epoch is.
package serve

import (
	"fivm/internal/data"
	"fivm/internal/ivm"
)

// Source publishes view snapshots; every ivm.Maintainer is a Source.
type Source[P any] interface {
	Snapshot() *ivm.ViewSnapshot[P]
}

// Reader is a handle over one pinned epoch of a Source's published result.
// It is owned by a single goroutine (it carries key-encoding scratch); spawn
// one Reader per reading goroutine. All reads between two Refresh calls
// observe one consistent epoch, on which the reader holds a lease until Close.
type Reader[P any] struct {
	src    Source[P]
	snap   *ivm.ViewSnapshot[P]
	keyBuf []byte
}

// NewReaderAt pins a reader to an explicitly chosen epoch of the source.
// This is how cross-view consistent read sets are assembled: a coordinator
// that owns several sources (db.DB) captures one snapshot per view at the
// same applied batch and hands each out via NewReaderAt, so every reader of
// the set observes the same prefix of the update stream. Refresh still
// advances through the live source (and never regresses). The reader
// retains snap; the caller keeps (and releases) its own reference. A nil
// snapshot pins the source's current epoch: publication must then already
// be enabled on the source (the maintenance side calls Snapshot once after
// Init), and the call may come from any goroutine.
func NewReaderAt[P any](src Source[P], snap *ivm.ViewSnapshot[P]) *Reader[P] {
	if snap == nil {
		return &Reader[P]{src: src, snap: src.Snapshot()}
	}
	snap.Retain()
	return &Reader[P]{src: src, snap: snap}
}

// NewPinned returns a reader pinned to an explicit snapshot with no live
// source behind it: Refresh is a no-op and the pin moves only through PinAt.
// This is the network-serving shape — a connection-scoped reader (keeping
// its key-encoding scratch warm across requests) re-pinned once per request
// to that request's epoch and Closed at its end. The reader retains snap.
func NewPinned[P any](snap *ivm.ViewSnapshot[P]) *Reader[P] {
	snap.Retain()
	return &Reader[P]{snap: snap}
}

// PinAt re-pins the reader to an explicitly chosen snapshot (nil keeps the
// current pin), retaining it and releasing the one it held. Unlike Refresh
// it may move backwards: the caller owns the epoch choice.
func (r *Reader[P]) PinAt(snap *ivm.ViewSnapshot[P]) {
	if snap != nil && snap != r.snap {
		snap.Retain()
		r.snap.Release()
		r.snap = snap
	}
}

// Close releases the pinned epoch. The reader keeps its scratch and, like
// the zero Reader, may be pinned with PinAt; any other use is an error.
func (r *Reader[P]) Close() {
	r.snap.Release()
	r.snap = nil
}

// Snapshot returns the pinned snapshot itself: the reader's lease, not a new one.
func (r *Reader[P]) Snapshot() *ivm.ViewSnapshot[P] { return r.snap }

// Refresh re-pins the reader to the latest published epoch and reports
// whether it advanced. A reader never moves backwards: if the loaded
// snapshot is not newer than the pinned one, the pin is kept. A refresh that
// finds nothing new is one atomic load.
func (r *Reader[P]) Refresh() bool {
	if r.src == nil || !r.snap.Superseded() {
		return false
	}
	s := r.src.Snapshot()
	defer s.Release()
	if s.Epoch <= r.snap.Epoch {
		return false
	}
	r.PinAt(s)
	return true
}

// Result returns the pinned snapshot of the query result.
func (r *Reader[P]) Result() *data.RelationSnapshot[P] { return r.snap.Result() }

// Lookup returns the result payload of a group-by key tuple (over the
// result schema, in schema order) and whether it is present. Steady-state
// lookups do not allocate.
func (r *Reader[P]) Lookup(group data.Tuple) (P, bool) {
	r.keyBuf = group.AppendKey(r.keyBuf[:0])
	if e := r.snap.Result().Lookup(r.keyBuf); e != nil {
		return e.Payload, true
	}
	var zero P
	return zero, false
}

// Scan visits, in key order, every result entry whose leading group-by
// variables equal the prefix tuple (an empty prefix scans the whole
// result), until f returns false. The prefix binds values for the first
// len(prefix) variables of the result schema.
func (r *Reader[P]) Scan(prefix data.Tuple, f func(t data.Tuple, p P) bool) {
	r.keyBuf = prefix.AppendKey(r.keyBuf[:0])
	r.snap.Result().ScanPrefix(r.keyBuf, func(e *data.Entry[P]) bool {
		return f(e.Tuple, e.Payload)
	})
}
