// Overload-aware admission control for the mining endpoints. The old
// fixed concurrency limiter answered every burst the same way — queue
// until the deadline dies, then 429 — which wastes the client's
// patience and the server's queue slots on requests that were doomed
// the moment they arrived. The admission controller instead:
//
//   - bounds the queue: once MaxQueueDepth requests are already
//     waiting, new arrivals are shed immediately (429 + Retry-After)
//     instead of deepening the convoy;
//   - schedules fairly: waiters are ordered by the jobs package's
//     cost-aware weighted-fair queue (start-time fair queueing over
//     per-tenant virtual time), not FIFO — one tenant flooding the
//     queue no longer convoys every other tenant behind its backlog,
//     and each slot that frees goes to the most underserved tenant;
//   - sheds on hopeless deadlines: an EWMA of recent mine durations
//     estimates this request's queue wait, and a client whose deadline
//     cannot be met is told now, with a Retry-After naming when the
//     backlog should have cleared;
//   - browns out memory pressure: when the resident-mine ledger says
//     admitting another in-memory mine would exceed BrownoutBytes, the
//     mine degrades to the out-of-core engine (disk passes, bounded
//     counters) instead of being rejected — slower answers beat no
//     answers;
//   - refuses work while draining, so shutdown never strands a mine.
//
// Every shed lands on dmc_shed_total{reason} and carries Retry-After.
package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/jobs"
)

// Shed reasons, the label values of dmc_shed_total.
const (
	shedQueueFull   = "queue_full"
	shedDeadline    = "deadline"
	shedDraining    = "draining"
	shedTenantQuota = "tenant_quota"
)

// shedInfo describes one load-shedding decision on its way to the
// client.
type shedInfo struct {
	status     int
	reason     string
	retryAfter time.Duration
	msg        string
}

// waiter is one parked request: granted by closing ready with the slot
// already transferred to it.
type waiter struct {
	ready chan struct{}
}

// admission is the bounded, deadline-aware, weighted-fair mining
// queue. A nil admission admits everything (no limiter configured).
type admission struct {
	capacity int
	maxQueue int

	mu    sync.Mutex
	inUse int
	queue *jobs.FairQueue

	waiters atomic.Int64
	ewmaUS  atomic.Int64 // EWMA of mine wall time, microseconds
}

func newAdmission(slots, maxQueue int, weights map[string]int) *admission {
	if slots <= 0 {
		return nil
	}
	if maxQueue == 0 {
		maxQueue = 4 * slots
	}
	return &admission{
		capacity: slots,
		maxQueue: maxQueue,
		queue:    jobs.NewFairQueue(weights),
	}
}

// estWait estimates the queue wait for a request arriving with pos
// waiters already ahead of it: each mine slot turns over once per EWMA
// duration, so the backlog drains at slots/EWMA requests per unit time.
func (a *admission) estWait(pos int64) time.Duration {
	ewma := time.Duration(a.ewmaUS.Load()) * time.Microsecond
	if ewma <= 0 {
		return 0
	}
	return ewma * time.Duration(pos+1) / time.Duration(a.capacity)
}

// estRetryAfter is the nil-safe Retry-After value for a 503 issued
// outside acquire (deadline, cancellation, drain): the wait a request
// joining the queue right now should expect. With no limiter there is
// no backlog signal, so the 1s floor stands alone.
func (a *admission) estRetryAfter() time.Duration {
	if a == nil {
		return retryAfter(0)
	}
	return retryAfter(a.estWait(a.waiters.Load()))
}

// retryAfter rounds a wait estimate up to whole seconds for the
// Retry-After header, with a 1s floor (0 reads as "retry immediately",
// which is exactly the thundering herd the shed is trying to stop).
func retryAfter(wait time.Duration) time.Duration {
	secs := (wait + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return secs * time.Second
}

// acquire admits a mining request for tenant, parking it in the
// weighted-fair queue until a slot frees or ctx dies. It returns a
// non-nil shedInfo when the request is refused: queue full, or a
// deadline that the backlog estimate already proves unmeetable.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), shed *shedInfo) {
	if a == nil {
		return func() {}, nil
	}
	a.mu.Lock()
	if a.inUse < a.capacity && a.queue.Len() == 0 {
		a.inUse++
		a.mu.Unlock()
		return a.releaser(1), nil
	}
	// The queue bound and the deadline check both happen under the
	// lock, before the waiter is enqueued — N racing arrivals cannot
	// all see room and overshoot MaxQueueDepth.
	pos := int64(a.queue.Len())
	if a.maxQueue > 0 && pos >= int64(a.maxQueue) {
		a.mu.Unlock()
		return nil, &shedInfo{
			status: http.StatusTooManyRequests, reason: shedQueueFull,
			retryAfter: retryAfter(a.estWait(pos)),
			msg:        "mining queue is full; retry later",
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := a.estWait(pos); est > 0 && est > time.Until(dl) {
			a.mu.Unlock()
			return nil, &shedInfo{
				status: http.StatusTooManyRequests, reason: shedDeadline,
				retryAfter: retryAfter(est),
				msg:        "estimated queue wait exceeds the request deadline; retry later",
			}
		}
	}
	w := &waiter{ready: make(chan struct{})}
	it := a.queue.Push(tenant, float64(a.ewmaUS.Load()), w)
	a.waiters.Add(1)
	a.mu.Unlock()

	select {
	case <-w.ready:
		a.waiters.Add(-1)
		return a.releaser(1), nil
	case <-ctx.Done():
		a.waiters.Add(-1)
		if !a.queue.Remove(it) {
			// Lost the race: a releasing request already granted this
			// waiter the slot. Pass it on rather than strand it.
			<-w.ready
			a.releaser(1)()
		}
		return nil, &shedInfo{
			status: http.StatusTooManyRequests, reason: shedDeadline,
			retryAfter: retryAfter(a.estWait(a.waiters.Load())),
			msg:        "request deadline expired while queued for a mining slot; retry later",
		}
	}
}

// borrow takes up to k idle slots without waiting, and none while a
// request queues: it returns how many it took and their releaser. A
// borrowed slot counts against the limit like an acquired one, so a
// mine that arrives while it is held queues for it.
func (a *admission) borrow(k int) (n int, release func()) {
	if a == nil || k <= 0 {
		return 0, func() {}
	}
	a.mu.Lock()
	if a.queue.Len() == 0 {
		n = min(k, a.capacity-a.inUse)
		a.inUse += n
	}
	a.mu.Unlock()
	return n, a.releaser(n)
}

// queueDepth reports how many requests are waiting for a slot.
func (a *admission) queueDepth() int64 {
	if a == nil {
		return 0
	}
	return a.waiters.Load()
}

// releaser hands each of the n slots a finished request held to the
// most underserved waiter (minimum virtual finish tag — the WFQ pick),
// or returns it to the pool when nobody waits. Work-conserving by
// construction: a slot is never idle while the queue is non-empty.
func (a *admission) releaser(n int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			for ; n > 0; n-- {
				if it := a.queue.Pop(); it != nil {
					close(it.Value.(*waiter).ready)
				} else {
					a.inUse--
				}
			}
			a.mu.Unlock()
		})
	}
}

// observe feeds one completed mine's wall time into the EWMA
// (α = 0.25: a few big mines shift the estimate, one outlier does not).
func (a *admission) observe(d time.Duration) {
	if a == nil {
		return
	}
	us := d.Microseconds()
	for {
		old := a.ewmaUS.Load()
		next := us
		if old > 0 {
			next = old + (us-old)/4
		}
		if a.ewmaUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// admitResident rules on running one more resident (in-memory) mine of
// estimated footprint est bytes under the Config.BrownoutBytes ceiling
// (zero = no ceiling). When the ledger says no, the caller degrades the
// mine to the out-of-core engine instead of rejecting; release returns
// the admitted bytes. An otherwise-idle server always admits — the
// ceiling sheds load, it never makes a lone oversized mine impossible.
func (s *Server) admitResident(est int64) (release func(), brownout bool) {
	ceiling := s.cfg.BrownoutBytes
	if ceiling <= 0 {
		return func() {}, false
	}
	for {
		cur := s.resident.Load()
		if cur > 0 && cur+est > ceiling {
			return nil, true
		}
		if s.resident.CompareAndSwap(cur, cur+est) {
			break
		}
	}
	var once sync.Once
	return func() { once.Do(func() { s.resident.Add(-est) }) }, false
}

// writeShed emits one load-shedding response: Retry-After, the
// structured error body, and the dmc_shed_total / legacy rejection
// counters.
func (s *Server) writeShed(w http.ResponseWriter, r *http.Request, shed *shedInfo) {
	s.metrics.shed.With(shed.reason).Inc()
	if shed.status == http.StatusTooManyRequests {
		s.metrics.rejected.Inc()
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64(shed.retryAfter/time.Second), 10))
	writeErr(w, r, shed.status, "%s", shed.msg)
}
