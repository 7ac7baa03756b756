package msg

// fifo is the hub's command queue: the intra-node message queue and the
// pending internode message queue of paper §3.7. The paper's queues are
// lock-free multi-producer single-consumer; here that property is a cost
// (CmdOverhead, handlerCPU), not host concurrency. A hub is only ever
// touched by its own shard's goroutine, one process at a time, so the queue
// is a plain slice with a head index: no atomics, no per-push allocation.
type fifo[T any] struct {
	items []T
	head  int
}

// push appends v. When the backing array is full and at least half of it is
// already consumed, the live tail slides to the front first, so a queue that
// never fully drains still runs in bounded memory.
func (q *fifo[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest element; ok is false when empty.
func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	var zero T
	v, q.items[q.head] = q.items[q.head], zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// len reports the number of queued elements.
func (q *fifo[T]) len() int { return len(q.items) - q.head }
