package db

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fivm/internal/wal"
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
// The maintenance goroutine commits in groups: the first queued batch and,
// without waiting for more, every batch already queued behind it that still
// fits one WAL record (wal.MaxBatchBytes); a Do item ends the group. A
// refused batch gets its own error, the rest are applied as one
// (DB.applyGroup: one WAL record, one sync, one delta pass per view, one
// epoch; one in Epoch.Applied). A producer blocks until its operation has
// been applied or refused: a nil return means the batch is applied, its epoch
// published and logged per the fsync policy.
type ApplyQueue struct {
	d     *DB
	items chan queueItem

	// mu (held shared by enqueues, exclusively by Close) makes "check closed,
	// then send" atomic against channel close.
	mu     sync.RWMutex
	closed bool
	done   chan struct{}

	// The group being committed (maintenance goroutine only), reused: each
	// member's batch, answer and reply channel.
	batches [][]Update
	errs    []error
	replies []chan error
	// maxBytes bounds a group's wal.BatchBytes, so that its record stays
	// within the log's record bound: a batch that would take the group past
	// it starts the next group, and one over it alone is a group of one,
	// which the log refuses.
	maxBytes int
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
		d:        d,
		items:    make(chan queueItem, depth),
		done:     make(chan struct{}),
		maxBytes: wal.MaxBatchBytes(),
	}
	go q.run()
	return q
}

// run is the maintenance goroutine: it drains the queue in order, so every
// DB write happens here and nowhere else. A Do item runs alone; a batch starts
// a group, which takes every batch queued behind it, without waiting, up to
// maxBytes, and ends at a Do item or an empty queue.
func (q *ApplyQueue) run() {
	defer close(q.done)
	it, ok := <-q.items
	for ok {
		if it.fn != nil {
			it.res <- it.fn(q.d)
			it, ok = <-q.items
			continue
		}
		for size := 0; ok && it.fn == nil; {
			n := wal.BatchBytes(it.batch)
			if len(q.batches) > 0 && size+n > q.maxBytes {
				break
			}
			size += n
			q.batches, q.errs, q.replies = append(q.batches, it.batch), append(q.errs, nil), append(q.replies, it.res)
			select {
			case it, ok = <-q.items:
			default:
				ok = false
			}
		}
		q.d.applyGroup(q.batches, q.errs)
		for i, res := range q.replies {
			res <- q.errs[i]
		}
		clear(q.batches) // the batches' arenas are rewound once their callers return
		q.batches, q.errs, q.replies = q.batches[:0], q.errs[:0], q.replies[:0]
		if !ok { // the queue ran empty (or closed): wait for the next item
			it, ok = <-q.items
		}
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
