// Package core implements the paper's contribution: the Dynamic
// Miss-Counting algorithms.
//
//   - DMC-base (Algorithm 3.1): the general miss-counting scan for
//     implication rules, with per-column candidate lists that stop
//     growing once the column's own 1-count exceeds its miss budget.
//   - DMC-bitmap (Algorithm 4.1): the low-memory endgame that absorbs
//     the dense tail of the scan into per-column bitmaps.
//   - The 100%-rule specializations of both (§4.3).
//   - DMC-imp (Algorithm 4.2): the full implication pipeline.
//   - DMC-sim (Algorithm 5.1): the similarity pipeline with
//     column-density pruning (§5.1) and maximum-hits pruning (§5.2).
//   - An exact brute-force reference miner used to validate everything.
//
// All confidence/similarity arithmetic is exact: thresholds are carried
// as rationals and every accept/reject decision is integer-only, so
// rules at exactly the threshold are classified correctly.
package core

import "fmt"

// Threshold is an exact rational threshold num/den in (0, 1]. The zero
// value is invalid; construct with FromPercent, FromRatio or FromFloat.
type Threshold struct {
	num, den int64
}

// FromPercent returns p/100. It panics unless 0 < p <= 100.
func FromPercent(p int) Threshold {
	return FromRatio(int64(p), 100)
}

// FromRatio returns num/den. It panics unless 0 < num/den <= 1.
func FromRatio(num, den int64) Threshold {
	if den <= 0 || num <= 0 || num > den {
		panic(fmt.Sprintf("core: threshold %d/%d outside (0,1]", num, den))
	}
	return Threshold{num, den}
}

// FromFloat returns the threshold f rounded to the nearest 1/10^6. It
// panics unless 0 < f <= 1. Prefer FromPercent or FromRatio when the
// intended threshold is an exact rational.
func FromFloat(f float64) Threshold {
	const den = 1_000_000
	num := int64(f*den + 0.5)
	return FromRatio(num, den)
}

// Float returns the threshold as a float64, for display only.
func (t Threshold) Float() float64 { return float64(t.num) / float64(t.den) }

// String renders the threshold as a percentage.
func (t Threshold) String() string { return fmt.Sprintf("%g%%", 100*t.Float()) }

// IsOne reports whether the threshold is exactly 100%.
func (t Threshold) IsOne() bool { return t.num == t.den }

// less reports t < u.
func (t Threshold) less(u Threshold) bool { return t.num*u.den < u.num*t.den }

func (t Threshold) check() {
	if t.den == 0 {
		panic("core: zero-value Threshold; use FromPercent/FromRatio/FromFloat")
	}
}

// Meets reports hits/total >= t. total must be positive.
func (t Threshold) Meets(hits, total int) bool {
	t.check()
	return int64(hits)*t.den >= t.num*int64(total)
}

// MaxMissesConf returns maxmis(c) = ⌊(1−t)·ones⌋: the greatest number
// of misses an implication rule with antecedent count ones may have and
// still meet the threshold (hits = ones−misses, conf = hits/ones ≥ t).
func (t Threshold) MaxMissesConf(ones int) int {
	t.check()
	return int((t.den - t.num) * int64(ones) / t.den)
}

// MinOnesConf returns the smallest column count with a nonzero miss
// budget: columns below it can only produce 100%-confidence rules, which
// is the sound form of DMC-imp's step-3 cutoff (see DESIGN.md §3 — the
// paper's "ones ≤ 1/(1−minconf)" removes boundary columns whose
// one-miss rules sit exactly at the threshold).
func (t Threshold) MinOnesConf() int {
	t.check()
	if t.IsOne() {
		return int(^uint(0) >> 1) // no column has a nonzero budget
	}
	// smallest ones with (den−num)·ones ≥ den
	return int(ceilDiv(t.den, t.den-t.num))
}

// MinHitsSim returns the least intersection size h for which
// h/(onesI+onesJ−h) ≥ t, i.e. h ≥ ⌈num·(onesI+onesJ)/(den+num)⌉.
func (t Threshold) MinHitsSim(onesI, onesJ int) int {
	t.check()
	return int(ceilDiv(t.num*int64(onesI+onesJ), t.den+t.num))
}

// MeetsSim reports whether a pair with the given intersection size and
// column counts has similarity ≥ t.
func (t Threshold) MeetsSim(hits, onesI, onesJ int) bool {
	return hits >= t.MinHitsSim(onesI, onesJ)
}

// MaxMissesSim returns the greatest number of one-sided misses (rows
// where the smaller column cI is 1 but cJ is 0) a pair may have and
// still meet the similarity threshold. It requires onesI <= onesJ.
// A negative result means no such pair can qualify — this is exactly
// the column-density pruning of §5.1 (onesI/onesJ < minsim).
func (t Threshold) MaxMissesSim(onesI, onesJ int) int {
	return onesI - t.MinHitsSim(onesI, onesJ)
}

// MinOnesSim returns the smallest column count that can take part in a
// qualifying non-identical similarity pair: the least h with
// h/(h+1) ≥ t. Columns below it are removed before the <100% phase of
// DMC-sim (step 3 of Algorithm 5.1; see DESIGN.md §3 for why we use
// this form rather than the paper's "ones ≤ 1/(1−minsim)−1").
// For t = 100% it returns maxInt: every non-identical pair is excluded.
func (t Threshold) MinOnesSim() int {
	t.check()
	if t.IsOne() {
		return int(^uint(0) >> 1)
	}
	// least h with h·den ≥ num·(h+1), i.e. h·(den−num) ≥ num
	return int(ceilDiv(t.num, t.den-t.num))
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
