// Package jobs is the crash-safe asynchronous job subsystem behind
// dmcserve's /v1/jobs API: long mines run detached from any HTTP
// request, survive a SIGKILL of the server, and run again at the next
// boot, where the serving layer replays what their first pass kept.
//
// The pieces, each its own file:
//
//   - fairqueue.go: a cost-aware weighted-fair queue (start-time fair
//     queueing over tenant virtual time) shared by the job worker pool
//     and the serving layer's admission control, so one heavy tenant
//     cannot starve the rest;
//   - journal.go: the CRC-framed append-only JOBS journal — the same
//     tmp+fsync+rename / torn-tail-repair discipline as the dataset
//     store's CATALOG — whose append is the single commit point of
//     every job state transition;
//   - events.go: the per-job progress hub feeding the SSE endpoint,
//     with bounded subscriber buffers and drop-don't-block semantics
//     for misbehaving clients;
//   - manager.go: the Manager tying them together — validation,
//     durable submission, a worker pool executing jobs through an
//     injected Runner with full-jitter retry around transient
//     failures, content-addressed result blobs, and boot-time replay
//     that re-admits incomplete jobs.
package jobs

import (
	"container/heap"
	"sync"
)

// FairQueue is a cost-aware weighted-fair queue: items are pushed with
// a tenant and an estimated cost, and Pop returns them in start-time
// fair queueing (SFQ) order over per-tenant virtual time. A tenant of
// weight w that keeps the queue backlogged receives a w-proportional
// share of pops, whatever the arrival pattern — the scheduling fix for
// one heavy tenant convoying everyone else behind its backlog.
//
// The virtual-time bookkeeping is the classic SFQ recipe: an item's
// virtual start is max(queue virtual time, the tenant's last virtual
// finish), its virtual finish is start + cost/weight, pops take the
// minimum finish tag, and the queue's virtual time advances to the
// popped item's start tag. Costs come from the caller's EWMA duration
// estimator, so an expensive tenant's items carry bigger tags and are
// naturally deprioritized to its fair share of *time*, not of slots.
//
// FairQueue is safe for concurrent use. It never blocks: callers own
// the waiting (the admission layer parks HTTP waiters on channels, the
// job manager parks its workers on a condition signal).
type FairQueue struct {
	mu      sync.Mutex
	items   fqHeap
	tenants map[string]*fqTenant
	vtime   float64
	seq     uint64
	weights map[string]int
}

type fqTenant struct {
	lastFinish float64
	backlog    int
}

// FairItem is one queued entry; it is returned by Push so the caller
// can Remove it (a waiter abandoning the queue on context death).
type FairItem struct {
	Tenant string
	Value  any

	cost   float64
	start  float64
	finish float64
	seq    uint64
	index  int // heap position, -1 once popped/removed
}

// NewFairQueue returns an empty queue. weights maps tenant names to
// scheduling weights; missing tenants (and weights < 1) default to 1.
// A nil map means every tenant weighs 1 — plain cost-fair queueing.
func NewFairQueue(weights map[string]int) *FairQueue {
	return &FairQueue{
		tenants: make(map[string]*fqTenant),
		weights: weights,
	}
}

// Weight reports the scheduling weight of a tenant.
func (q *FairQueue) Weight(tenant string) int {
	if w, ok := q.weights[tenant]; ok && w >= 1 {
		return w
	}
	return 1
}

// Push enqueues value for tenant with the given estimated cost (any
// positive unit — microseconds, milliseconds — as long as tenants are
// measured alike; cost <= 0 is treated as 1, degrading to weighted
// round-robin).
func (q *FairQueue) Push(tenant string, cost float64, value any) *FairItem {
	if cost <= 0 {
		cost = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenants[tenant]
	if t == nil {
		t = &fqTenant{}
		q.tenants[tenant] = t
	}
	start := q.vtime
	if t.backlog > 0 && t.lastFinish > start {
		// A backlogged tenant's next item starts where its previous one
		// finished, which is what spaces a flood out to its fair share.
		// An idle tenant re-enters at the current virtual time: it is
		// never punished for past idleness nor credited for it.
		start = t.lastFinish
	}
	it := &FairItem{
		Tenant: tenant, Value: value,
		cost:   cost,
		start:  start,
		finish: start + cost/float64(q.Weight(tenant)),
		seq:    q.seq,
	}
	q.seq++
	t.lastFinish = it.finish
	t.backlog++
	heap.Push(&q.items, it)
	return it
}

// Pop removes and returns the item with the minimum virtual finish
// time, or nil when the queue is empty. The queue's virtual time
// advances to the popped item's start tag.
func (q *FairQueue) Pop() *FairItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	it := heap.Pop(&q.items).(*FairItem)
	q.finishLocked(it)
	return it
}

// Remove takes an item out of the queue (a waiter whose context died).
// It reports whether the item was still queued; false means it was
// already popped or removed.
func (q *FairQueue) Remove(it *FairItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it.index < 0 {
		return false
	}
	heap.Remove(&q.items, it.index)
	q.finishLocked(it)
	return true
}

func (q *FairQueue) finishLocked(it *FairItem) {
	if it.start > q.vtime {
		q.vtime = it.start
	}
	if t := q.tenants[it.Tenant]; t != nil {
		t.backlog--
		if t.backlog == 0 {
			// Drop idle tenants so the map doesn't grow with tenant
			// churn; lastFinish is irrelevant once nothing is queued
			// (re-entry snaps to the queue's virtual time anyway).
			delete(q.tenants, it.Tenant)
		}
	}
	it.index = -1
}

// Len reports the number of queued items.
func (q *FairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// fqHeap orders items by virtual finish tag, FIFO on exact ties.
type fqHeap []*FairItem

func (h fqHeap) Len() int { return len(h) }
func (h fqHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h fqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *fqHeap) Push(x any) {
	it := x.(*FairItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *fqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
