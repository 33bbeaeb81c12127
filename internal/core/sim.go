package core

import (
	"time"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// DMCSim mines all similarity rules of m with Jaccard similarity ≥
// minsim, implementing Algorithm 5.1:
//
//  1. prescan — count ones(c) and derive the (bucketed) scan order;
//  2. extract 100%-similar (identical) columns with the counterless
//     equal-count scan;
//  3. drop every column too small to take part in a qualifying
//     non-identical pair (Threshold.MinOnesSim);
//  4. extract the remaining pairs with the miss-counting similarity
//     scan, which applies the column-density pruning of §5.1 and the
//     maximum-hits pruning of §5.2.
//
// The result is exact: every unordered pair with Sim ≥ minsim among
// columns with at least one 1, each exactly once, in no particular
// order. For rule sets too large to materialize, use DMCSimEach.
func DMCSim(m *matrix.Matrix, minsim Threshold, opts Options) ([]rules.Similarity, Stats) {
	var out []rules.Similarity
	st := DMCSimEach(m, minsim, opts, func(r rules.Similarity) { out = append(out, r) })
	return out, st
}

// DMCSimEach is DMCSim with streaming emission; see DMCImpEach.
func DMCSimEach(m *matrix.Matrix, minsim Threshold, opts Options, fn func(rules.Similarity)) Stats {
	start := time.Now()
	ones := m.Ones()
	src := MatrixSource(m, opts.Order.order(m))
	return dmcSim(src, ones, minsim, opts, time.Since(start), fn)
}

// DMCSimSource is DMCSim over an abstract row source; see DMCImpSource
// for the streaming contract.
func DMCSimSource(src Source, ones []int, minsim Threshold, opts Options) ([]rules.Similarity, Stats) {
	var out []rules.Similarity
	st := dmcSim(src, ones, minsim, opts, 0, func(r rules.Similarity) { out = append(out, r) })
	return out, st
}

// DMCSimSourceEach combines the Source and streaming-emission forms.
func DMCSimSourceEach(src Source, ones []int, minsim Threshold, opts Options, fn func(rules.Similarity)) Stats {
	return dmcSim(src, ones, minsim, opts, 0, fn)
}

// dmcSim runs the pipeline proper; prescan as in dmcImp.
func dmcSim(src Source, ones []int, minsim Threshold, opts Options, prescan time.Duration, fn func(rules.Similarity)) Stats {
	minsim.check()
	var st Stats
	st.SwitchPos100, st.SwitchPosLT = -1, -1
	st.Prescan = prescan
	opts.Hooks.emitPhase("sim", "prescan", prescan)
	start := time.Now()

	mem100 := &memMeter{sample: opts.SampleMemory}
	memLT := &memMeter{sample: opts.SampleMemory}
	mcols := src.NumCols()
	supportAlive := opts.supportMask(ones)
	shardOwned := opts.Shard.mask(mcols)
	emit := func(r rules.Similarity) {
		st.NumRules++
		fn(r)
	}

	if opts.SingleScan {
		t0 := time.Now()
		simScan(src.Pass(), mcols, ones, supportAlive, shardOwned, minsim, opts, nil, memLT, &st, emit)
		st.PhaseLT = time.Since(t0)
		st.BitmapLT = st.Bitmap
		st.ColumnsAfterCutoff = mcols
		opts.Hooks.emitPhase("sim", "lt", st.PhaseLT)
		opts.Hooks.emitSwitch("sim", "lt", st.SwitchPosLT)
	} else {
		t0 := time.Now()
		sim100Scan(src.Pass(), mcols, ones, supportAlive, shardOwned, opts, nil, mem100, &st, emit)
		st.Phase100 = time.Since(t0)
		st.Bitmap100 = st.Bitmap
		opts.Hooks.emitPhase("sim", "100", st.Phase100)
		opts.Hooks.emitSwitch("sim", "100", st.SwitchPos100)

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
			simScan(src.Pass(), mcols, ones, alive, shardOwned, minsim, opts, nil, memLT, &st, func(r rules.Similarity) {
				// Identical pairs (sim = 1) came from the first phase.
				if !(r.Hits == r.OnesA && r.OnesA == r.OnesB) {
					emit(r)
				}
			})
			st.PhaseLT = time.Since(t1)
			st.BitmapLT = st.Bitmap - st.Bitmap100
			opts.Hooks.emitPhase("sim", "lt", st.PhaseLT)
			opts.Hooks.emitSwitch("sim", "lt", st.SwitchPosLT)
		}
	}

	st.Peak100, st.PeakLT = mem100.peak, memLT.peak
	st.PeakCounterBytes = max(mem100.peak, memLT.peak)
	st.MemSamples = append(mem100.samples, memLT.samples...)
	st.Total = prescan + time.Since(start)
	opts.Hooks.emitStats("sim", st)
	return st
}
