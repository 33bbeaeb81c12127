package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmc/internal/matrix"
)

// This file is the one mining pipeline behind every exported miner.
// Algorithms 4.2 and 5.1 share their phase structure and differ only in
// the scans a family plugs in, and the §7 parallelization divides only
// the counter arrays — every worker still scans every row — so serial
// mining is simply one worker.

// ResolveWorkers maps the public "workers" knob to a concrete worker
// count: values below 1 mean auto — one worker per schedulable CPU
// (GOMAXPROCS). Callers that expose a -workers flag pass it through
// unchanged so 0 uniformly means "use the whole machine".
func ResolveWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ErrSequentialSource is returned when a source pipeline is asked for
// workers > 1 on a Source that cannot broadcast a pass to several
// consumers. Mine with workers = 1, or provide a ConcurrentSource
// (stream.Partitioned is one).
var ErrSequentialSource = errors.New(
	"core: source supports only one sequential reader per pass; use workers=1 or a ConcurrentSource")

// family is what one rule family plugs into the pipeline: its Hooks
// label, the 100% scan, the general <100% scan, the step-3 cutoff, the
// test for rules the 100% phase already emitted, and the exact test of
// a rule against a threshold.
type family[R any] struct {
	name     string
	scan100  func(rows Rows, mcols int, ones []int, alive, owned colMask, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(R))
	scanLT   func(rows Rows, mcols int, ones []int, alive, owned colMask, t Threshold, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(R))
	minOnes  func(Threshold) int
	found100 func(R) bool
	meets    func(Threshold, R) bool
}

// pipeline is fam's Hooks label at a resolved worker count.
func (fam family[R]) pipeline(workers int) string {
	if workers > 1 {
		return fam.name + "-parallel"
	}
	return fam.name
}

// scanFunc is one phase's scan with the family, threshold and column
// mask bound; what varies per worker is its view of the pass, the
// columns it owns, and its own meter, stats and emitter.
type scanFunc[R any] func(rows Rows, owned colMask, share *tailShare, mem *memMeter, st *Stats, emit func(R))

// mineMatrix is mine over an in-memory matrix; its prescan counts
// ones(c) and derives Options.Order's scan order.
func mineMatrix[R any](fam family[R], m *matrix.Matrix, t Threshold, opts Options, workers int, fn func(R)) Stats {
	start := time.Now()
	ones := m.Ones()
	src := MatrixSource(m, opts.Order.order(m))
	return mine(fam, src, ones, t, opts, workers, time.Since(start), nil, fn)
}

// mineAll is mineMatrix collecting the rules.
func mineAll[R any](fam family[R], m *matrix.Matrix, t Threshold, opts Options, workers int) ([]R, Stats) {
	var out []R
	st := mineMatrix(fam, m, t, opts, workers, func(r R) { out = append(out, r) })
	return out, st
}

// mineSource is mine over a caller's Source collecting the rules, with
// pass failures returned as the error instead of panicking.
func mineSource[R any](fam family[R], src Source, ones []int, t Threshold, opts Options, workers int) ([]R, Stats, error) {
	if w := ResolveWorkers(workers); w > 1 {
		if _, ok := src.(ConcurrentSource); !ok {
			return nil, Stats{}, fmt.Errorf("%w (source %T, workers %d)", ErrSequentialSource, src, w)
		}
	}
	var out []R
	var st Stats
	if err := capturePass(func() {
		st = mine(fam, src, ones, t, opts, workers, 0, nil, func(r R) { out = append(out, r) })
	}); err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// mine runs fam's pipeline over src and passes every rule to fn exactly
// once. ones are the per-column 1-counts of the caller's first pass,
// which took prescan; the source's pass order is taken as given.
//
//  1. the 100% phase, fam.scan100;
//  2. the step-3 cutoff: drop every column with fewer than
//     fam.minOnes(t) ones — it can only take part in 100% rules, all
//     found already;
//  3. the <100% phase, fam.scanLT over the survivors, minus the rules
//     step 1 found.
//
// Options.SingleScan instead runs step 3 alone over every column.
//
// memo, when non-nil, is a Prepared's slots for fam, which the caller
// passes only for requests whose rules are the whole matrix's
// (Options.memoable). A filled 100% slot stands in for step 1: its
// rules are emitted as copies and the phase neither runs nor reports.
// An empty one records step 1's rules here on the coordinating
// goroutine and is filled once the phase completes; when two first
// mines race, the first store wins. Step 3's rules are recorded the
// same way, up to the memo's room, and kept once the phase completes
// if t is still the lowest threshold kept. So a cancelled or
// budget-aborted phase stores nothing.
//
// The columns are divided among workers (≤ 0 means one per CPU) by
// shardOwnership, and each worker keeps candidate lists — and emits
// rules — only for the columns it owns: it walks each row's owned
// columns (colMask.cols) and merges them against the whole row. One
// worker scans src.Pass() on
// the calling goroutine and hands rules to fn as it finds them; several
// need a ConcurrentSource (see runPhase). Stats are aggregated: phase
// durations are wall-clock, counts and memory peaks are summed over the
// workers, switch positions come from the first worker that switched.
// A pass failure panics with its SourceError.
func mine[R any](fam family[R], src Source, ones []int, t Threshold, opts Options, workers int, prescan time.Duration, memo *slots[R], fn func(R)) Stats {
	t.check()
	workers = ResolveWorkers(workers)
	pipeline := fam.pipeline(workers)
	st := Stats{Prescan: prescan, SwitchPos100: -1, SwitchPosLT: -1}
	opts.Hooks.emitPhase(pipeline, "prescan", prescan)
	start := time.Now()

	mcols := src.NumCols()
	owned := shardOwnership(ones, workers, opts.Shard)
	wopts := opts.perWorker(workers)
	supportAlive := opts.supportMask(ones)
	emit := func(r R) {
		st.NumRules++
		fn(r)
	}
	phase := func(phase100 bool, scan scanFunc[R], emit func(R)) {
		t0 := time.Now()
		ws := runPhase(opts.Ctx, src, owned, opts.SampleMemory, scan, emit)
		d := time.Since(t0)
		collect(&st, ws, phase100)
		name, pos := "lt", st.SwitchPosLT
		if phase100 {
			name, pos = "100", st.SwitchPos100
			st.Phase100 = d
		} else {
			st.PhaseLT = d
		}
		opts.Hooks.emitPhase(pipeline, name, d)
		opts.Hooks.emitSwitch(pipeline, name, pos)
	}

	if opts.SingleScan {
		phase(false, func(rows Rows, owned colMask, share *tailShare, mem *memMeter, ws *Stats, emit func(R)) {
			fam.scanLT(rows, mcols, ones, supportAlive, owned, t, wopts, share, mem, ws, emit)
		}, emit)
		st.ColumnsAfterCutoff = mcols
	} else {
		var hit *[]R
		if memo != nil {
			hit = memo.all.Load()
		}
		if hit != nil {
			for _, r := range *hit {
				emit(r)
			}
		} else {
			var found []R
			emit100 := emit
			if memo != nil {
				emit100 = func(r R) {
					found = append(found, r)
					emit(r)
				}
			}
			phase(true, func(rows Rows, owned colMask, share *tailShare, mem *memMeter, ws *Stats, emit func(R)) {
				fam.scan100(rows, mcols, ones, supportAlive, owned, wopts, share, mem, ws, emit)
			}, emit100)
			if memo != nil {
				memo.all.CompareAndSwap(nil, &found)
			}
		}
		if !t.IsOne() {
			minOnes := fam.minOnes(t)
			alive := make(colMask, mcols)
			for c, k := range ones {
				if k >= minOnes && supportAlive.has(c) {
					alive[c] = 1
					st.ColumnsAfterCutoff++
				}
			}
			if st.ColumnsAfterCutoff == mcols {
				// Nothing was cut: scan the rows as they are instead
				// of copying each through the mask.
				alive = nil
			}
			var found []R
			emitLT, keep := emit, memo != nil
			if keep {
				room := memo.room(ones)
				emitLT = func(r R) {
					switch {
					case !keep:
					case len(found) < room:
						found = append(found, r)
					default: // past the bound: return the rules, keep none
						found, keep = nil, false
					}
					emit(r)
				}
			}
			phase(false, func(rows Rows, owned colMask, share *tailShare, mem *memMeter, ws *Stats, emit func(R)) {
				fam.scanLT(rows, mcols, ones, alive, owned, t, wopts, share, mem, ws, func(r R) {
					if !fam.found100(r) {
						emit(r)
					}
				})
			}, emitLT)
			if keep {
				memo.keep(t, found)
			}
		}
	}

	st.PeakCounterBytes = max(st.Peak100, st.PeakLT)
	st.Total = prescan + time.Since(start)
	opts.Hooks.emitStats(pipeline, st)
	return st
}

// worker is one worker's state for one phase.
type worker[R any] struct {
	st  Stats
	mem memMeter
	out []R // rules held for the coordinator (several workers only)
}

// runPhase runs scan over one fresh pass of src per ownership mask,
// started under ctx when src is a ContextSource. Every view is released
// before runPhase returns or panics.
//
// A lone worker scans its pass on the calling goroutine, emitting as
// it goes and building any DMC-bitmap tail privately; a pass failure
// panics straight through. It alone records the Options.SampleMemory
// series.
//
// Several workers each scan their own view of one ConcurrentPass,
// masking rows as they read them, and build each tail once between
// them (tailShare). Their rules are held per worker and emitted here, in
// worker order, once all have stopped. A SourceError panic is caught
// per worker and the first is re-panicked here after every worker has
// stopped, so a failed parallel mine follows the same protocol as a
// serial one instead of crashing the process from a worker goroutine,
// where no caller could recover it.
func runPhase[R any](ctx context.Context, src Source, owned []colMask, sample bool, scan scanFunc[R], emit func(R)) []worker[R] {
	ws := make([]worker[R], len(owned))
	for i := range ws {
		ws[i].st.SwitchPos100, ws[i].st.SwitchPosLT = -1, -1
	}
	if len(ws) == 1 {
		ws[0].mem.sample = sample
		rows := pass(ctx, src)
		defer releaseRows(rows)
		scan(rows, owned[0], nil, &ws[0].mem, &ws[0].st, emit)
		return ws
	}
	share := newTailShare()
	views := concurrentPass(ctx, src, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseRows(views[i])
			w := &ws[i]
			errs[i] = capturePass(func() {
				scan(views[i], owned[i], share, &w.mem, &w.st, func(r R) { w.out = append(w.out, r) })
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	for i := range ws {
		for _, r := range ws[i].out {
			emit(r)
		}
	}
	return ws
}

// pass starts one pass of src for a lone worker, under ctx when src is
// a ContextSource.
func pass(ctx context.Context, src Source) Rows {
	if cs, ok := src.(ContextSource); ok {
		return cs.PassContext(ctx, 1)[0]
	}
	return src.Pass()
}

// concurrentPass starts one pass of src for n workers, under ctx when
// src is a ContextSource.
func concurrentPass(ctx context.Context, src Source, n int) []Rows {
	if cs, ok := src.(ContextSource); ok {
		return cs.PassContext(ctx, n)
	}
	return src.(ConcurrentSource).ConcurrentPass(n)
}

// collect folds one phase's workers into st. TailBitmapBytes sums to
// each tail built exactly once: tailShare charges only the building
// worker.
func collect[R any](st *Stats, ws []worker[R], phase100 bool) {
	for i := range ws {
		w := &ws[i]
		st.CandidatesAdded += w.st.CandidatesAdded
		st.CandidatesDeleted += w.st.CandidatesDeleted
		st.TailBitmapBytes += w.st.TailBitmapBytes
		st.MemSamples = append(st.MemSamples, w.mem.samples...)
		if phase100 {
			st.Peak100 += w.mem.peak
			st.Bitmap100 += w.st.Bitmap
			if st.SwitchPos100 < 0 && w.st.SwitchPos100 >= 0 {
				st.SwitchPos100 = w.st.SwitchPos100
			}
		} else {
			st.PeakLT += w.mem.peak
			st.BitmapLT += w.st.Bitmap
			if st.SwitchPosLT < 0 && w.st.SwitchPosLT >= 0 {
				st.SwitchPosLT = w.st.SwitchPosLT
			}
		}
	}
	st.Bitmap = st.Bitmap100 + st.BitmapLT
}

// perWorker divides the memory budget across workers: each worker
// meters its own counter arena and the peaks coexist, so every worker
// gets an equal share of the allowance.
func (o Options) perWorker(workers int) Options {
	if o.MemBudgetBytes > 0 {
		o.MemBudgetBytes /= workers
		if o.MemBudgetBytes == 0 {
			o.MemBudgetBytes = 1
		}
	}
	return o
}

// CapturePass runs f, converting a SourceError panic (the Rows pass
// failure protocol, which also carries CancelError and BudgetError)
// into an ordinary error. It is how callers of the panic-based
// in-memory pipelines (DMCImp, DMCImpParallel, ...) observe
// cancellation and budget exhaustion as errors: wrap the call, then
// errors.Is(err, context.Canceled) / errors.As(&BudgetError) on the
// result. Other panics propagate — they are bugs, not pass failures.
func CapturePass(f func()) error { return capturePass(f) }

// capturePass runs f, converting a SourceError panic (the Rows pass
// failure protocol) into an ordinary error. Other panics propagate.
func capturePass(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(SourceError)
			if !ok {
				panic(r)
			}
			err = se
		}
	}()
	f()
	return nil
}

func releaseRows(rows Rows) {
	if rr, ok := rows.(ReleasableRows); ok {
		rr.Release()
	}
}
