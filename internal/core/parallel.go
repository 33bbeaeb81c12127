package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

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

// DMCImpParallel is the divide-and-conquer parallelization the paper's
// §7 proposes (after FDM): columns are partitioned across workers (a
// snake walk over the ones-sorted columns, so dense columns spread
// evenly), and each worker runs the full DMC-imp pipeline but maintains
// candidate lists — and therefore emits rules — only for the antecedent
// columns it owns. The scan itself is shared, not duplicated: masked
// row streams are prefiltered once per phase and read by all workers,
// and the DMC-bitmap tail is built once per switch position
// (tailShare) instead of per worker. workers ≤ 0 means one worker per
// CPU. The result is exactly DMCImp's; the counter-array memory is
// what gets divided.
//
// Stats are aggregated: phase durations are the wall-clock times of the
// parallel phases, candidate counts are summed across workers, and the
// memory peaks are summed too (they coexist). Switch positions are
// taken from the first worker that switched.
func DMCImpParallel(m *matrix.Matrix, minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats) {
	minconf.check()
	workers = ResolveWorkers(workers)
	var st Stats
	st.SwitchPos100, st.SwitchPosLT = -1, -1
	start := time.Now()

	ones := m.Ones()
	order := opts.Order.order(m)
	mcols := m.NumCols()
	owned := shardOwnership(ones, workers, opts.Shard)
	wopts := opts.perWorker(workers)
	supportAlive := opts.supportMask(ones)
	base := Rows(matrixRows{m, order})
	rows100 := base
	if supportAlive != nil {
		// Shared scan: run the mask filter once, not once per worker
		// per row; workers then scan the prefiltered stream unmasked.
		rows100 = prefilterRows(base, supportAlive)
	}
	st.Prescan = time.Since(start)
	opts.Hooks.emitPhase("imp-parallel", "prescan", st.Prescan)

	perWorker := make([]workerState[rules.Implication], workers)

	t0 := time.Now()
	share100 := newTailShare()
	runWorkers(workers, func(w int) {
		ws := &perWorker[w]
		ws.mem = &memMeter{}
		ws.st.SwitchPos100, ws.st.SwitchPosLT = -1, -1
		imp100Scan(rows100, mcols, ones, nil, owned[w], wopts, share100, ws.mem, &ws.st, func(r rules.Implication) {
			ws.out = append(ws.out, r)
		})
	})
	st.Phase100 = time.Since(t0)
	collect(&st, perWorker, true)
	opts.Hooks.emitPhase("imp-parallel", "100", st.Phase100)
	opts.Hooks.emitSwitch("imp-parallel", "100", st.SwitchPos100)
	out := gather(perWorker)

	if !minconf.IsOne() {
		t1 := time.Now()
		minOnes := minconf.MinOnesConf()
		alive := make([]bool, mcols)
		for c, k := range ones {
			if k >= minOnes && (supportAlive == nil || supportAlive[c]) {
				alive[c] = true
				st.ColumnsAfterCutoff++
			}
		}
		rowsLT := Rows(prefilterRows(base, alive))
		shareLT := newTailShare()
		perWorker = make([]workerState[rules.Implication], workers)
		runWorkers(workers, func(w int) {
			ws := &perWorker[w]
			ws.mem = &memMeter{}
			ws.st.SwitchPos100, ws.st.SwitchPosLT = -1, -1
			impScan(rowsLT, mcols, ones, nil, owned[w], minconf, wopts, shareLT, ws.mem, &ws.st, func(r rules.Implication) {
				if r.Hits < r.Ones {
					ws.out = append(ws.out, r)
				}
			})
		})
		st.PhaseLT = time.Since(t1)
		collect(&st, perWorker, false)
		opts.Hooks.emitPhase("imp-parallel", "lt", st.PhaseLT)
		opts.Hooks.emitSwitch("imp-parallel", "lt", st.SwitchPosLT)
		out = append(out, gather(perWorker)...)
	}

	st.PeakCounterBytes = max(st.Peak100, st.PeakLT)
	st.NumRules = len(out)
	st.Total = time.Since(start)
	opts.Hooks.emitStats("imp-parallel", st)
	return out, st
}

// DMCSimParallel is DMCImpParallel for similarity rules: workers own
// the smaller column of each candidate pair.
func DMCSimParallel(m *matrix.Matrix, minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats) {
	minsim.check()
	workers = ResolveWorkers(workers)
	var st Stats
	st.SwitchPos100, st.SwitchPosLT = -1, -1
	start := time.Now()

	ones := m.Ones()
	order := opts.Order.order(m)
	mcols := m.NumCols()
	owned := shardOwnership(ones, workers, opts.Shard)
	wopts := opts.perWorker(workers)
	supportAlive := opts.supportMask(ones)
	base := Rows(matrixRows{m, order})
	rows100 := base
	if supportAlive != nil {
		rows100 = prefilterRows(base, supportAlive)
	}
	st.Prescan = time.Since(start)
	opts.Hooks.emitPhase("sim-parallel", "prescan", st.Prescan)

	perWorker := make([]workerState[rules.Similarity], workers)

	t0 := time.Now()
	share100 := newTailShare()
	runWorkers(workers, func(w int) {
		ws := &perWorker[w]
		ws.mem = &memMeter{}
		ws.st.SwitchPos100, ws.st.SwitchPosLT = -1, -1
		sim100Scan(rows100, mcols, ones, nil, owned[w], wopts, share100, ws.mem, &ws.st, func(r rules.Similarity) {
			ws.out = append(ws.out, r)
		})
	})
	st.Phase100 = time.Since(t0)
	collect(&st, perWorker, true)
	opts.Hooks.emitPhase("sim-parallel", "100", st.Phase100)
	opts.Hooks.emitSwitch("sim-parallel", "100", st.SwitchPos100)
	out := gather(perWorker)

	if !minsim.IsOne() {
		t1 := time.Now()
		minOnes := minsim.MinOnesSim()
		alive := make([]bool, mcols)
		for c, k := range ones {
			if k >= minOnes && (supportAlive == nil || supportAlive[c]) {
				alive[c] = true
				st.ColumnsAfterCutoff++
			}
		}
		rowsLT := Rows(prefilterRows(base, alive))
		shareLT := newTailShare()
		perWorker = make([]workerState[rules.Similarity], workers)
		runWorkers(workers, func(w int) {
			ws := &perWorker[w]
			ws.mem = &memMeter{}
			ws.st.SwitchPos100, ws.st.SwitchPosLT = -1, -1
			simScan(rowsLT, mcols, ones, nil, owned[w], minsim, wopts, shareLT, ws.mem, &ws.st, func(r rules.Similarity) {
				if !(r.Hits == r.OnesA && r.OnesA == r.OnesB) {
					ws.out = append(ws.out, r)
				}
			})
		})
		st.PhaseLT = time.Since(t1)
		collect(&st, perWorker, false)
		opts.Hooks.emitPhase("sim-parallel", "lt", st.PhaseLT)
		opts.Hooks.emitSwitch("sim-parallel", "lt", st.SwitchPosLT)
		out = append(out, gather(perWorker)...)
	}

	st.PeakCounterBytes = max(st.Peak100, st.PeakLT)
	st.NumRules = len(out)
	st.Total = time.Since(start)
	opts.Hooks.emitStats("sim-parallel", st)
	return out, st
}

type workerState[R any] struct {
	out []R
	st  Stats
	mem *memMeter
}

// ownership partitions the columns across workers with a snake
// (boustrophedon) walk over the columns sorted by descending 1-count:
// density ranks 0..W-1 go to workers 0..W-1, ranks W..2W-1 come back
// W-1..0, and so on. Every worker therefore holds an equal slice of
// every density stratum — round-robin over raw column ids balances
// counts but lets a run of dense columns land on one worker; the snake
// bounds the per-worker ones-sum imbalance by a single column's count.
func ownership(ones []int, workers int) [][]bool {
	mcols := len(ones)
	if workers == 1 {
		return [][]bool{nil} // nil mask = own everything, no per-row check
	}
	idx := make([]int, mcols)
	for i := range idx {
		idx[i] = i
	}
	return snakeOwnership(ones, idx, workers)
}

// snakeOwnership assigns the candidate columns idx to workers with the
// snake walk (idx need not be every column — shardOwnership passes the
// in-shard subset); columns outside idx belong to no worker.
func snakeOwnership(ones, idx []int, workers int) [][]bool {
	mcols := len(ones)
	idx = append([]int(nil), idx...)
	sort.Slice(idx, func(a, b int) bool {
		oa, ob := ones[idx[a]], ones[idx[b]]
		return oa > ob || (oa == ob && idx[a] < idx[b])
	})
	owned := make([][]bool, workers)
	for w := range owned {
		owned[w] = make([]bool, mcols)
	}
	for rank, c := range idx {
		lap, off := rank/workers, rank%workers
		w := off
		if lap%2 == 1 {
			w = workers - 1 - off
		}
		owned[w][c] = true
	}
	return owned
}

// runWorkers runs f(w) on one goroutine per worker. SourceError panics
// (cancellation, memory budget, pass failures) are captured per worker
// and the first is re-panicked from the coordinating goroutine after
// every worker has stopped — so a cancelled parallel mine tears down
// all workers and still follows the same panic protocol as a serial
// one, instead of crashing the process from a worker goroutine (where
// no caller can recover it).
func runWorkers(workers int, f func(w int)) {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = capturePass(func() { f(w) })
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}

// perWorker divides the memory budget across workers: each worker
// meters its own counter arena and the peaks coexist, so every worker
// gets an equal share of the allowance.
func (o Options) perWorker(workers int) Options {
	if o.MemBudgetBytes > 0 && workers > 1 {
		o.MemBudgetBytes /= workers
		if o.MemBudgetBytes == 0 {
			o.MemBudgetBytes = 1
		}
	}
	return o
}

// collect merges per-worker stats into the aggregate. TailBitmapBytes
// sums to the bytes built exactly once per switch position: tailShare
// charges only the building worker.
func collect[R any](st *Stats, ws []workerState[R], phase100 bool) {
	for i := range ws {
		w := &ws[i]
		st.CandidatesAdded += w.st.CandidatesAdded
		st.CandidatesDeleted += w.st.CandidatesDeleted
		st.TailBitmapBytes += w.st.TailBitmapBytes
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

func gather[R any](ws []workerState[R]) []R {
	var out []R
	for i := range ws {
		out = append(out, ws[i].out...)
	}
	return out
}
