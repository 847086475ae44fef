package engine

import (
	"math/bits"
	"sync"
)

// This file holds the two queue implementations behind Engine.
//
// heapQueue is the legacy binary min-heap, now with direct typed
// sift-up/sift-down (no container/heap, no interface{} boxing per
// push/pop). It remains the differential-testing reference and the
// far-future overflow structure of the bucketed queue.
//
// bucketQueue is the production queue: a ring of numBuckets per-cycle
// FIFO buckets covering the window [start, start+numBuckets), plus a
// heapQueue for events beyond the window. Almost every event in the
// simulator lands within a few hundred cycles of now (the largest
// Table 4 latency is the 300-cycle memory access), so pushes and pops
// are O(1) appends/reads of reused slices at steady state. When the
// window empties, the queue jumps to the earliest far-future event and
// drains the heap into the new window.

// heapQueue is a typed binary min-heap ordered by item.before.
type heapQueue struct {
	items []item
}

func (h *heapQueue) push(it item) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

func (h *heapQueue) pop() (item, bool) {
	n := len(h.items)
	if n == 0 {
		return item{}, false
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = item{} // release closure/runner references
	h.items = h.items[:n-1]
	if len(h.items) > 1 {
		h.siftDown(0)
	}
	return top, true
}

func (h *heapQueue) peekAt() (Cycle, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].at, true
}

// popBefore pops the earliest item only when its cycle is below limit.
func (h *heapQueue) popBefore(limit Cycle) (item, bool) {
	if len(h.items) == 0 || h.items[0].at >= limit {
		return item{}, false
	}
	return h.pop()
}

func (h *heapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *heapQueue) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.items[l].before(h.items[min]) {
			min = l
		}
		if r < n && h.items[r].before(h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// bucketBits sizes the near-future window: 512 cycles comfortably
// covers every latency the machine model schedules (memory is 300),
// and the small ring stays cache-resident.
const (
	bucketBits = 9
	numBuckets = 1 << bucketBits
	bucketMask = numBuckets - 1
)

// bucket holds the events of exactly one cycle within the current
// window, in push order (which is seq order, preserving determinism).
// head is the next unpopped index; the slice is reset and reused once
// the cycle has been fully drained.
type bucket struct {
	items []item
	head  int
}

type bucketQueue struct {
	buckets []bucket
	occ     []uint64      // occupancy bitmap: bit b set ⇔ buckets[b] has unpopped items
	store   *queueStorage // pooled backing for buckets; nil after release
	start   Cycle         // inclusive lower bound of the window
	cursor  Cycle         // cycle of the last pop; every queued item is at >= cursor
	inWin   int           // unpopped items currently in buckets
	far     heapQueue
	size    int
	prof    *Prof // queue-introspection counters (Engine.SetProf); nil when disabled
}

// queueStorage is the poolable part of a bucketQueue: the ring itself
// plus every per-bucket items slice its buckets have grown, plus the
// occupancy bitmap. A fresh ring costs one 4096-bucket allocation up
// front and then one lazy slice allocation per distinct active cycle —
// a fixed per-engine overhead. Recycling the storage across runs makes
// that a one-time cost per process instead of per run.
type queueStorage struct {
	buckets []bucket
	occ     []uint64
}

var storagePool = sync.Pool{
	New: func() any {
		return &queueStorage{
			buckets: make([]bucket, numBuckets),
			occ:     make([]uint64, numBuckets/64),
		}
	},
}

func (q *bucketQueue) init() {
	q.store = storagePool.Get().(*queueStorage)
	q.buckets = q.store.buckets
	q.occ = q.store.occ
}

// release returns the ring to the shared pool. Callers guarantee the
// queue is empty; every occupied slot was already zeroed when its item
// popped, so resetting lengths and heads is enough to hand the storage
// to the next engine without leaking event references.
func (q *bucketQueue) release() {
	if q.store == nil {
		return
	}
	for i := range q.buckets {
		b := &q.buckets[i]
		b.items = b.items[:0]
		b.head = 0
	}
	for i := range q.occ {
		q.occ[i] = 0
	}
	storagePool.Put(q.store)
	q.store = nil
	q.buckets = nil
	q.occ = nil
}

// push files the item into its cycle's bucket when the cycle falls in
// the current window, and into the far-future heap otherwise. Callers
// guarantee it.at >= the last popped cycle, so it.at >= q.cursor.
func (q *bucketQueue) push(it item) {
	q.size++
	if it.at < q.start+numBuckets {
		slot := uint64(it.at) & bucketMask
		b := &q.buckets[slot]
		b.items = append(b.items, it)
		q.occ[slot>>6] |= 1 << (slot & 63)
		q.inWin++
		if q.prof != nil {
			q.prof.RingPushes++
			if q.inWin > q.prof.RingHigh {
				q.prof.RingHigh = q.inWin
			}
		}
	} else {
		q.far.push(it)
		if q.prof != nil {
			q.prof.FarPushes++
			if len(q.far.items) > q.prof.FarHigh {
				q.prof.FarHigh = len(q.far.items)
			}
		}
	}
}

// takeAt pops the front of cycle c's bucket, clearing the occupancy
// bit and recycling the slice when the cycle drains. Callers guarantee
// the bucket is non-empty. Nothing can arrive behind a drained cycle
// (pushes land at >= the last popped cycle), so the reset is final
// until the ring wraps back around.
func (q *bucketQueue) takeAt(c Cycle) item {
	slot := uint64(c) & bucketMask
	b := &q.buckets[slot]
	it := b.items[b.head]
	b.items[b.head] = item{} // release closure/runner references
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		q.occ[slot>>6] &^= 1 << (slot & 63)
	}
	q.inWin--
	q.size--
	return it
}

// nextOccupied reports the earliest non-empty bucket cycle in
// [from, start+numBuckets), skipping empty buckets a 64-cycle word at
// a time via the occupancy bitmap instead of probing them one by one.
func (q *bucketQueue) nextOccupied(from Cycle) (Cycle, bool) {
	span := uint64(q.start + numBuckets - from) // window cycles left to scan
	slot := uint64(from) & bucketMask
	if word := q.occ[slot>>6] >> (slot & 63); word != 0 {
		if d := uint64(bits.TrailingZeros64(word)); d < span {
			return from + Cycle(d), true
		}
		return 0, false
	}
	for covered := 64 - (slot & 63); covered < span; covered += 64 {
		if word := q.occ[((slot+covered)&bucketMask)>>6]; word != 0 {
			if d := covered + uint64(bits.TrailingZeros64(word)); d < span {
				return from + Cycle(d), true
			}
			return 0, false
		}
	}
	return 0, false
}

// pop returns the globally earliest item in (cycle, seq) order.
func (q *bucketQueue) pop() (item, bool) {
	if q.size == 0 {
		return item{}, false
	}
	for {
		if q.inWin > 0 {
			// inWin > 0 guarantees an occupied bucket in the window.
			c, _ := q.nextOccupied(q.cursor)
			q.cursor = c
			return q.takeAt(c), true
		}
		// Window empty: jump to the earliest far-future event and drain
		// the heap into the new window. Heap pops come out in (cycle,
		// seq) order, so each bucket receives its items in seq order.
		at, ok := q.far.peekAt()
		if !ok {
			return item{}, false // unreachable while size > 0
		}
		q.start = at
		q.cursor = at
		q.refill()
	}
}

// refill drains far-future events landing in the (just repositioned)
// window into their buckets. Heap pops come out in (cycle, seq) order,
// so each bucket receives its items in seq order. Migrated events were
// already counted as FarPushes when first filed, so only the ring
// high-water mark is refreshed here — never the push counters.
func (q *bucketQueue) refill() {
	for {
		nextAt, ok := q.far.peekAt()
		if !ok || nextAt >= q.start+numBuckets {
			return
		}
		it, _ := q.far.pop()
		slot := uint64(it.at) & bucketMask
		b := &q.buckets[slot]
		b.items = append(b.items, it)
		q.occ[slot>>6] |= 1 << (slot & 63)
		q.inWin++
		if q.prof != nil && q.inWin > q.prof.RingHigh {
			q.prof.RingHigh = q.inWin
		}
	}
}

// popBefore is pop restricted to cycles below limit. The cursor is NOT
// advanced on refusal: later pushes may still land between the last
// popped cycle and the refused one.
func (q *bucketQueue) popBefore(limit Cycle) (item, bool) {
	if q.size == 0 {
		return item{}, false
	}
	for {
		if q.inWin > 0 {
			c, _ := q.nextOccupied(q.cursor)
			if c >= limit {
				// Every cycle below limit is drained; the rest can wait.
				return item{}, false
			}
			q.cursor = c
			return q.takeAt(c), true
		}
		at, farOK := q.far.peekAt()
		if !farOK || at >= limit {
			return item{}, false
		}
		q.start = at
		q.cursor = at
		q.refill()
	}
}
