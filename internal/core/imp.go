package core

import (
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// impFamily plugs Algorithm 4.2 into the pipeline: the counterless
// 100%-rule scan of §4.3, then the general DMC-base scan over the
// columns whose miss budget is not zero.
var impFamily = family[rules.Implication]{
	name:     "imp",
	scan100:  imp100Scan,
	scanLT:   impScan,
	minOnes:  Threshold.MinOnesConf,
	found100: func(r rules.Implication) bool { return r.Hits == r.Ones },
	meets:    func(t Threshold, r rules.Implication) bool { return t.Meets(r.Hits, r.Ones) },
}

// DMCImp mines all implication rules of m with confidence ≥ minconf,
// implementing Algorithm 4.2:
//
//  1. prescan — count ones(c) and derive the (bucketed) scan order;
//  2. extract 100%-confidence rules with the simplified counterless
//     scan of §4.3 (with its DMC-bitmap endgame);
//  3. drop every column whose miss budget is zero — such columns can
//     only produce 100%-confidence rules, all found already;
//  4. extract the remaining rules with the general DMC-base scan (with
//     its DMC-bitmap endgame).
//
// The result is exact: every rule with Conf ≥ minconf among columns
// with at least one 1, each exactly once, in no particular order.
// For rule sets too large to materialize, use DMCImpEach.
func DMCImp(m *matrix.Matrix, minconf Threshold, opts Options) ([]rules.Implication, Stats) {
	return mineAll(impFamily, m, minconf, opts, 1)
}

// DMCImpEach is DMCImp with streaming emission: each mined rule is
// passed to fn exactly once, in scan order, and never stored — the
// right entry point when the rule volume itself is the memory problem
// (support-free mining of crawl-scale data can yield tens of millions
// of rules).
func DMCImpEach(m *matrix.Matrix, minconf Threshold, opts Options, fn func(rules.Implication)) Stats {
	return mineMatrix(impFamily, m, minconf, opts, 1, fn)
}

// DMCImpParallel is the divide-and-conquer parallelization the paper's
// §7 proposes (after FDM): columns are partitioned across workers (a
// snake walk over the ones-sorted columns, so dense columns spread
// evenly), and each worker runs the full DMC-imp pipeline but maintains
// candidate lists — and therefore emits rules — only for the antecedent
// columns it owns. Every worker scans every row, masking each as it
// reads it; the DMC-bitmap tail is built once per switch position and
// shared. workers ≤ 0 means one worker per CPU, and workers = 1 is
// DMCImp. The result is exactly DMCImp's; the counter-array memory is
// what gets divided.
func DMCImpParallel(m *matrix.Matrix, minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats) {
	return mineAll(impFamily, m, minconf, opts, workers)
}

// DMCImpParallelSource is DMCImpParallel over an abstract row source —
// the entry point for streamed, disk-backed mining (package stream).
// ones must be the caller's first-pass per-column 1-counts; the
// source's pass order is taken as given (Options.Order is ignored), so
// a streaming caller implements §4.1 by writing density buckets during
// its first pass and replaying them sparsest-first. workers > 1 needs a
// ConcurrentSource, which reads each pass once for all workers;
// otherwise the error is ErrSequentialSource. Pass failures signalled
// by a SourceError panic come back as the error.
func DMCImpParallelSource(src Source, ones []int, minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats, error) {
	return mineSource(impFamily, src, ones, minconf, opts, workers)
}
