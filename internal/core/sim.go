package core

import (
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// simFamily plugs Algorithm 5.1 into the pipeline: the counterless
// identical-column scan, then the miss-counting similarity scan over
// the columns large enough for a non-identical qualifying pair.
var simFamily = family[rules.Similarity]{
	name:     "sim",
	scan100:  sim100Scan,
	scanLT:   simScan,
	minOnes:  Threshold.MinOnesSim,
	found100: func(r rules.Similarity) bool { return r.Hits == r.OnesA && r.OnesA == r.OnesB },
	meets:    func(t Threshold, r rules.Similarity) bool { return t.MeetsSim(r.Hits, r.OnesA, r.OnesB) },
}

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
	return mineAll(simFamily, m, minsim, opts, 1)
}

// DMCSimEach is DMCSim with streaming emission; see DMCImpEach.
func DMCSimEach(m *matrix.Matrix, minsim Threshold, opts Options, fn func(rules.Similarity)) Stats {
	return mineMatrix(simFamily, m, minsim, opts, 1, fn)
}

// DMCSimParallel is DMCImpParallel for similarity rules: workers own
// the smaller column of each candidate pair.
func DMCSimParallel(m *matrix.Matrix, minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats) {
	return mineAll(simFamily, m, minsim, opts, workers)
}

// DMCSimParallelSource is DMCImpParallelSource for similarity rules.
func DMCSimParallelSource(src Source, ones []int, minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats, error) {
	return mineSource(simFamily, src, ones, minsim, opts, workers)
}
