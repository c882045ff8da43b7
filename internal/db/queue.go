package db

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQueueFull is returned by ApplyQueue.TryApply when the bounded queue is
// at capacity: the caller should shed load (the HTTP layer turns it into
// 429 + Retry-After).
var ErrQueueFull = errors.New("db: apply queue full")

// ErrQueueClosed is returned by enqueues after Close.
var ErrQueueClosed = errors.New("db: apply queue closed")

// ApplyQueue serializes writes from any number of producer goroutines onto
// the DB's single-writer contract: a bounded channel feeds one maintenance
// goroutine that owns every Apply and DDL call. The bound is the
// backpressure mechanism — when the maintenance goroutine cannot keep up,
// TryApply fails fast with ErrQueueFull instead of queueing unbounded work.
//
// Each enqueued operation carries a result channel; the producer blocks
// until its operation has been applied (or rejected), so a nil return means
// the batch is applied, its epoch published, and — with durability — logged
// per the fsync policy.
type ApplyQueue struct {
	d     *DB
	items chan queueItem

	// mu (held shared by enqueues, exclusively by Close) makes "check closed,
	// then send" atomic against channel close.
	mu     sync.RWMutex
	closed bool
	done   chan struct{}
}

type queueItem struct {
	batch []Update
	fn    func(*DB) error
	res   chan error
}

// NewApplyQueue starts the maintenance goroutine over d with a queue of the
// given depth (minimum 1). The queue owns all writes from here on: apply
// through it, run DDL via Do, and stop it with Close before closing the DB.
func NewApplyQueue(d *DB, depth int) *ApplyQueue {
	if depth < 1 {
		depth = 1
	}
	q := &ApplyQueue{
		d:     d,
		items: make(chan queueItem, depth),
		done:  make(chan struct{}),
	}
	go q.run()
	return q
}

// run is the maintenance goroutine: it drains the queue in order, so every
// DB write happens here and nowhere else.
func (q *ApplyQueue) run() {
	defer close(q.done)
	for it := range q.items {
		var err error
		if it.fn != nil {
			err = it.fn(q.d)
		} else {
			err = q.d.Apply(it.batch)
		}
		it.res <- err
	}
}

// enqueue places one item without blocking; ErrQueueFull when at capacity.
func (q *ApplyQueue) enqueue(it queueItem) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return ErrQueueClosed
	}
	select {
	case q.items <- it:
		return nil
	default:
		return ErrQueueFull
	}
}

// replies holds the items' reply channels: one goes back only once its one
// reply was received (await), or unused when its item was refused.
var replies = sync.Pool{New: func() any { return make(chan error, 1) }}

func await(it queueItem) error {
	err := <-it.res
	replies.Put(it.res)
	return err
}

// TryApply enqueues a batch if the queue has room — ErrQueueFull otherwise —
// and waits for it to be applied. This is the backpressure write path.
func (q *ApplyQueue) TryApply(batch []Update) error {
	it := queueItem{batch: batch, res: replies.Get().(chan error)}
	if err := q.enqueue(it); err != nil {
		replies.Put(it.res)
		return err
	}
	return await(it)
}

// Apply enqueues a batch, waiting for room if the queue is full, and then
// for the batch to be applied. Use TryApply to shed load instead.
func (q *ApplyQueue) Apply(batch []Update) error {
	return q.wait(queueItem{batch: batch, res: replies.Get().(chan error)})
}

// Do runs fn on the maintenance goroutine, after everything enqueued before
// it — the path for DDL (Exec, CreateView, DropView) and any other
// single-writer operation (checkpoints, one-shot SELECT views). fn's
// side effects are visible to the caller when Do returns.
func (q *ApplyQueue) Do(fn func(*DB) error) error {
	return q.wait(queueItem{fn: fn, res: replies.Get().(chan error)})
}

// wait enqueues blocking-ly: it retries with a small backoff rather than
// holding the closed-check lock across a blocked channel send (which would
// deadlock Close).
func (q *ApplyQueue) wait(it queueItem) error {
	for backoff := 50 * time.Microsecond; ; {
		err := q.enqueue(it)
		if err == nil {
			return await(it)
		}
		if err != ErrQueueFull {
			replies.Put(it.res)
			return err
		}
		time.Sleep(backoff)
		if backoff < 2*time.Millisecond {
			backoff *= 2
		}
	}
}

// Len reports the operations currently queued (monitoring).
func (q *ApplyQueue) Len() int { return len(q.items) }

// Cap reports the queue depth.
func (q *ApplyQueue) Cap() int { return cap(q.items) }

// Close stops accepting work, waits for everything already queued to be
// applied, and stops the maintenance goroutine. The DB itself stays open
// (and is now safe to use from the caller's goroutine again).
func (q *ApplyQueue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return nil
	}
	q.closed = true
	q.mu.Unlock()
	close(q.items)
	<-q.done
	return nil
}

// String describes the queue state (diagnostics).
func (q *ApplyQueue) String() string {
	return fmt.Sprintf("ApplyQueue(%d/%d)", q.Len(), q.Cap())
}
