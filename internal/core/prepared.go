package core

import (
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// Prepared is a data set with a memo of the mining work no threshold
// changes: the first pass's ones(c), and per rule family the 100% rules
// that step 2 of Algorithms 4.2 and 5.1 extracts. The first mine of a
// family fills its slot; every later one, at any threshold, emits
// copies of the stored rules and runs only the step-3 cutoff and the
// <100% phase. The rule set is the fresh mine's, because the 100% rules
// are fixed by the data and the <100% phase drops them anyway.
//
// It holds either a matrix (Prepare), whose ones(c) the first mine
// counts and whose scan order every mine derives again, or a source
// whose own first pass counted ones(c) (PrepareSource), such as a kept
// stream partition, whose passes run in the source's order.
//
// Only the paper's default request reads or fills a slot: sparsest-first
// order, no Shard, no SingleScan, no SampleMemory and MinSupport ≤ 1.
// Every other request runs the whole pipeline, taking only ones(c)
// from the memo. So a Prepared holds ones(c) and at most two rule sets,
// each no larger than the 100% part of one result, and nothing per row.
// It is safe for concurrent use; the data must not change while it is
// in use.
type Prepared struct {
	m        *matrix.Matrix
	src      ConcurrentSource // set instead of m by PrepareSource
	onesOnce sync.Once
	ones     []int
	imp      atomic.Pointer[[]rules.Implication]
	sim      atomic.Pointer[[]rules.Similarity]
}

// Prepare returns an empty memo over m. Nothing is computed until the
// first mine.
func Prepare(m *matrix.Matrix) *Prepared { return &Prepared{m: m} }

// PrepareSource returns an empty memo over src, whose first pass counted
// ones, the per-column 1-counts of its rows; the Prepared keeps ones and
// the caller must not modify it. Every mine replays src (a ContextSource
// under the mine's own Options.Ctx), whatever its Options.Order.
func PrepareSource(src ConcurrentSource, ones []int) *Prepared {
	return &Prepared{src: src, ones: ones}
}

// Implications is DMCImpParallel(m, minconf, opts, workers) served
// through the memo, with the same contract: a cancel or a budget
// overflow panics with a SourceError (catch it with CapturePass). On a
// memo hit Stats.Phase100 is 0, no "100" phase or bitmap switch is
// reported to Hooks, and the candidate and memory figures cover only
// the <100% phase (NumRules still counts every rule). The returned
// slice is the caller's own.
func (p *Prepared) Implications(minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats) {
	return minePrepared(p, impFamily, &p.imp, minconf, opts, workers)
}

// Similarities is Implications for similarity rules: DMCSimParallel
// served through the memo.
func (p *Prepared) Similarities(minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats) {
	return minePrepared(p, simFamily, &p.sim, minsim, opts, workers)
}

// minePrepared is mineAll with the prescan's ones(c) counted once per
// Prepared and memo passed to mine when opts allow it.
func minePrepared[R any](p *Prepared, fam family[R], memo *atomic.Pointer[[]R], t Threshold, opts Options, workers int) ([]R, Stats) {
	start := time.Now()
	var src Source = p.src
	if p.m != nil {
		p.onesOnce.Do(func() { p.ones = p.m.Ones() })
		src = MatrixSource(p.m, opts.Order.order(p.m))
	}
	if !opts.memoable() {
		memo = nil
	}
	var out []R
	st := mine(fam, src, p.ones, t, opts, workers, time.Since(start), memo, func(r R) { out = append(out, r) })
	return out, st
}

// memoable reports whether a Prepared may serve opts from its 100%-rule
// memo: the paper's default request, whose 100% rules are the whole
// data set's and whose Stats carry no per-row series.
func (o Options) memoable() bool {
	return o.Order == OrderSparsestFirst && o.Shard == nil && !o.SingleScan && !o.SampleMemory && o.MinSupport <= 1
}
