package core

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// Prepared is a data set with a memo of its mining results. Per rule
// family it keeps the 100% rules, which step 2 of Algorithms 4.2 and
// 5.1 extracts and no threshold changes, and the <100% rules of the
// lowest threshold mined so far. A rule set only shrinks as the
// threshold rises, and every rule carries its exact counts, so the
// rules at a higher threshold are the kept ones that pass the engines'
// rational test (Threshold.Meets, Threshold.MeetsSim).
//
// A mine at 100% once the 100% rules are stored, or at or above the
// kept threshold, is served from the memo, with no scan order and no
// phase. Any other mine emits copies of the stored 100% rules if there
// are any, runs the step-3 cutoff and the <100% phase, and keeps its
// <100% rules if its threshold is still the lowest. Either way the rule
// set is the fresh mine's.
//
// It holds either a matrix (Prepare), whose ones(c) the first mine
// counts and whose scan order every scanning mine derives again, or a
// source whose own first pass counted ones(c) (PrepareSource), such as
// a kept stream partition, whose passes run in the source's order.
//
// Only the paper's default request reads or fills the memo:
// sparsest-first order, no Shard, no SingleScan, no SampleMemory and
// MinSupport ≤ 1. Every other request runs the whole pipeline, taking
// only ones(c) from the memo. Kept <100% rules must fit under the data
// set's Footprint; a larger set is returned, not kept. So per family a
// Prepared holds the 100% part of one result and at most one footprint
// of <100% rules, besides ones(c), and nothing per row. It is safe for
// concurrent use; the data must not change while it is in use.
type Prepared struct {
	m        *matrix.Matrix
	src      ConcurrentSource // set instead of m by PrepareSource
	onesOnce sync.Once
	ones     []int
	imp      slots[rules.Implication]
	sim      slots[rules.Similarity]
}

// slots are one family's memo in a Prepared.
type slots[R any] struct {
	all  atomic.Pointer[[]R]     // the 100% rules
	tail atomic.Pointer[tail[R]] // the <100% rules of the lowest threshold kept
}

// tail is the <100% rules of one completed mine at t.
type tail[R any] struct {
	t     Threshold
	rules []R
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

// Footprint estimates the memory a resident mine of a matrix with ones
// 1-entries over cols columns holds: the rows at 8 B an entry plus the
// O(cols) counter arrays. It bills resident mines, and bounds the <100%
// rules a Prepared keeps. A rough proxy is fine: neither use enforces a
// hard limit (Options.MemBudgetBytes does that).
func Footprint(ones, cols int) int64 {
	return int64(ones)*8 + int64(cols)*16
}

// Implications is DMCImpParallel(m, minconf, opts, workers) served
// through the memo, with the same contract: a cancel or a budget
// overflow panics with a SourceError (catch it with CapturePass). A
// mine the memo covers is answered as MemoImplications answers it.
// Otherwise, when the 100% rules are stored, Stats.Phase100 is 0, no
// "100" phase or bitmap switch is reported to Hooks, and the candidate
// and memory figures cover only the <100% phase (NumRules still counts
// every rule). The returned slice is the caller's own.
func (p *Prepared) Implications(minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats) {
	return minePrepared(p, impFamily, &p.imp, minconf, opts, workers)
}

// MemoImplications is Implications answered from the memo alone, or ok
// false, with nothing mined or reported, when the memo does not cover
// (minconf, opts). A served mine runs no worker and derives no scan
// order: it reports a zero "prescan" and OnStats only, and its Stats
// hold NumRules and Total, with every phase, peak and count zero and
// both switch positions -1. workers only picks the Hooks label.
func (p *Prepared) MemoImplications(minconf Threshold, opts Options, workers int) ([]rules.Implication, Stats, bool) {
	return serveMemo(impFamily, &p.imp, minconf, opts, workers)
}

// Similarities is Implications for similarity rules: DMCSimParallel
// served through the memo.
func (p *Prepared) Similarities(minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats) {
	return minePrepared(p, simFamily, &p.sim, minsim, opts, workers)
}

// MemoSimilarities is MemoImplications for similarity rules.
func (p *Prepared) MemoSimilarities(minsim Threshold, opts Options, workers int) ([]rules.Similarity, Stats, bool) {
	return serveMemo(simFamily, &p.sim, minsim, opts, workers)
}

// minePrepared is mineAll served from memo when it covers the mine,
// and otherwise with the prescan's ones(c) counted once per Prepared
// and memo passed to mine when opts allow it.
func minePrepared[R any](p *Prepared, fam family[R], memo *slots[R], t Threshold, opts Options, workers int) ([]R, Stats) {
	if out, st, ok := serveMemo(fam, memo, t, opts, workers); ok {
		return out, st
	}
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

// serveMemo answers a mine of fam at t from mo (see MemoImplications).
func serveMemo[R any](fam family[R], mo *slots[R], t Threshold, opts Options, workers int) ([]R, Stats, bool) {
	t.check()
	if !opts.memoable() {
		return nil, Stats{}, false
	}
	start := time.Now()
	all := mo.all.Load()
	if all == nil {
		return nil, Stats{}, false
	}
	n := len(*all)
	var kept *tail[R]
	if !t.IsOne() {
		if kept = mo.tail.Load(); kept == nil || t.less(kept.t) {
			return nil, Stats{}, false
		}
		n += len(kept.rules)
	}
	var out []R
	if n > 0 {
		out = append(make([]R, 0, n), *all...)
	}
	if kept != nil {
		for _, r := range kept.rules {
			if fam.meets(t, r) {
				out = append(out, r)
			}
		}
	}
	st := Stats{NumRules: len(out), SwitchPos100: -1, SwitchPosLT: -1, Total: time.Since(start)}
	pipeline := fam.pipeline(ResolveWorkers(workers))
	opts.Hooks.emitPhase(pipeline, "prescan", 0)
	opts.Hooks.emitStats(pipeline, st)
	return out, st, true
}

// room is how many <100% rules of a data set with per-column 1-counts
// ones a memo keeps: as many as fit under its Footprint.
func (mo *slots[R]) room(ones []int) int {
	n := 0
	for _, k := range ones {
		n += k
	}
	var r R
	return int(Footprint(n, len(ones)) / int64(unsafe.Sizeof(r)))
}

// keep stores rs, the <100% rules of a completed mine at t, unless the
// slot already holds those of a threshold at or below t.
func (mo *slots[R]) keep(t Threshold, rs []R) {
	for {
		cur := mo.tail.Load()
		if cur != nil && !t.less(cur.t) {
			return
		}
		if mo.tail.CompareAndSwap(cur, &tail[R]{t, rs}) {
			return
		}
	}
}

// memoable reports whether a Prepared may serve opts from its memo: the
// paper's default request, whose rules are the whole data set's and
// whose Stats carry no per-row series.
func (o Options) memoable() bool {
	return o.Order == OrderSparsestFirst && o.Shard == nil && !o.SingleScan && !o.SampleMemory && o.MinSupport <= 1
}
