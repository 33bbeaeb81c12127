package core

import (
	"sync"
	"sync/atomic"

	"dmc/internal/bitset"
	"dmc/internal/matrix"
)

// This file is the shared DMC-bitmap tail of a multi-worker mine. §7
// divides the counter array across workers, but not the tail: a private
// copy per worker would cost W-fold build work and W-fold bitmap memory
// at W workers, so each tail is materialized once and shared read-only.

// tailShare coordinates the Algorithm 4.1 tail build across workers:
// the first worker to switch to DMC-bitmap at a given scan position
// materializes the tail rows and bitmaps, every later worker switching
// at the same position reuses them read-only. Workers whose counter
// arrays cross the switch threshold at different positions get separate
// (correct, still shared-by-position) builds; in practice the
// rows-remaining trigger aligns them.
//
// A nil *tailShare is valid and means "build privately" — the
// single-worker path, where there is exactly one builder anyway.
type tailShare struct {
	mu      sync.Mutex
	entries map[int]*tailEntry
}

// tailEntry is claim/wait rather than sync.Once: the first worker to
// arrive claims the build, later workers wait on ready. The split
// matters for broadcast sources — a waiter must be able to release its
// row view before blocking (see get), which a blocking Once.Do cannot
// express.
type tailEntry struct {
	claimed atomic.Bool
	ready   chan struct{}
	tail    [][]matrix.Col
	bms     []*bitset.Set
	bytes   int
	fail    any // panic value of a failed build (e.g. a SourceError)
}

func newTailShare() *tailShare {
	return &tailShare{entries: make(map[int]*tailEntry)}
}

// get returns the tail rows and per-column bitmaps for rows[pos:],
// building them at most once per position. The builder's Stats record
// the materialized bytes (so a parallel run's summed TailBitmapBytes
// counts each shared build exactly once).
func (ts *tailShare) get(rows Rows, pos, mcols int, alive colMask, st *Stats) ([][]matrix.Col, []*bitset.Set) {
	if ts == nil {
		tail, bms, bytes := tailBitmaps(rows, pos, mcols, alive)
		st.TailBitmapBytes += bytes
		return tail, bms
	}
	ts.mu.Lock()
	e := ts.entries[pos]
	if e == nil {
		e = &tailEntry{ready: make(chan struct{})}
		ts.entries[pos] = e
	}
	ts.mu.Unlock()
	if e.claimed.CompareAndSwap(false, true) {
		// Builder. A disk-backed pass can abort the build (SourceError
		// panic); record the value and re-panic it for every worker
		// that would have reused the build — otherwise they would scan
		// nil bitmaps.
		built := false
		defer func() {
			if !built {
				if r := recover(); r != nil {
					e.fail = r
					close(e.ready)
					panic(r)
				}
			}
		}()
		e.tail, e.bms, e.bytes = tailBitmaps(rows, pos, mcols, alive)
		st.TailBitmapBytes += e.bytes
		built = true
		close(e.ready)
	} else {
		// Reuser: no scan reads its pass again after the switch, so
		// drop out of a broadcast stream before blocking. Otherwise a
		// bounded ring full of undelivered rows would wedge the single
		// reader — and with it the builder, which still needs the tail
		// of its own view.
		releaseRows(rows)
		<-e.ready
	}
	if e.fail != nil {
		panic(e.fail)
	}
	return e.tail, e.bms
}
