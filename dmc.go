// Package dmc mines implication and similarity rules from 0/1
// transaction matrices using the Dynamic Miss-Counting algorithms of
// Fujiwara, Ullman and Motwani (ICDE 2000): confidence pruning instead
// of support pruning, so low-support but high-confidence rules are
// found exactly — no false positives, no false negatives.
//
// The data model is a sparse boolean matrix: rows are transactions
// (baskets, documents, clients), columns are attributes (items, words,
// URLs). Two rule families are supported:
//
//   - implication rules ci ⇒ cj, reported when
//     |Si∩Sj| / |Si| ≥ minconf (Si is the set of rows with a 1 in ci);
//   - similarity rules ci ≃ cj, reported when the Jaccard similarity
//     |Si∩Sj| / |Si∪Sj| ≥ minsim.
//
// Build a Matrix with NewBuilder (or Load one from disk), pick an exact
// Threshold, and call MineImplications or MineSimilarities:
//
//	b := dmc.NewBuilder(0)
//	b.AddRow([]dmc.Col{1, 2})
//	b.AddRow([]dmc.Col{0, 1, 2})
//	m := b.Build()
//	rules, stats := dmc.MineImplications(m, dmc.Percent(85), dmc.Options{})
//
// The engines run the full DMC-imp / DMC-sim pipelines of the paper:
// a prescan, a counterless 100%-rule phase, removal of columns whose
// miss budget is zero, the general miss-counting scan in sparsest-first
// row order, and the DMC-bitmap low-memory endgame for the dense tail.
// Options exposes every knob (scan order, bitmap switch thresholds,
// single-scan ablation, memory sampling); the zero value reproduces the
// paper's implementation choices.
package dmc

import (
	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// Col identifies a column (attribute) of a Matrix. Ids are dense:
// 0..NumCols()-1.
type Col = matrix.Col

// Matrix is a sparse 0/1 matrix: n transaction rows over m attribute
// columns. Construct with NewBuilder or FromRows, or Load from disk.
type Matrix = matrix.Matrix

// Builder accumulates rows from untrusted input, normalizing each
// (sorting, deduplicating) and growing the column count as needed.
type Builder = matrix.Builder

// NewBuilder returns a Builder producing a matrix with at least minCols
// columns.
func NewBuilder(minCols int) *Builder { return matrix.NewBuilder(minCols) }

// FromRows builds a matrix from pre-normalized rows (strictly
// increasing column ids, all < m). It panics on malformed rows; use
// NewBuilder for untrusted input.
func FromRows(m int, rows [][]Col) *Matrix { return matrix.FromRows(m, rows) }

// Load reads a matrix saved by Save (.dmt text or .dmb binary),
// together with its companion ".labels" file when present.
func Load(path string) (*Matrix, error) { return matrix.Load(path) }

// Save writes a matrix (codec chosen by extension: .dmt text, .dmb
// binary) and its labels when set.
func Save(path string, m *Matrix) error { return matrix.Save(path, m) }

// Threshold is an exact rational confidence/similarity threshold in
// (0, 1]. Exactness matters: a rule sitting exactly at the threshold is
// accepted, with no float rounding surprises.
type Threshold = core.Threshold

// Percent returns the threshold p/100 (panics unless 0 < p ≤ 100).
func Percent(p int) Threshold { return core.FromPercent(p) }

// Ratio returns the threshold num/den (panics unless 0 < num/den ≤ 1).
func Ratio(num, den int64) Threshold { return core.FromRatio(num, den) }

// Options configure the mining pipelines; the zero value gives the
// paper's defaults (sparsest-first order, DMC-bitmap switch at ≤64
// remaining rows over a 50MB counter array).
type Options = core.Options

// Order kinds for Options.Order.
const (
	OrderSparsestFirst = core.OrderSparsestFirst
	OrderOriginal      = core.OrderOriginal
	OrderDensestFirst  = core.OrderDensestFirst
)

// Stats reports phase timings, counter-array memory, candidate churn
// and the DMC-bitmap switch positions of a mining run.
type Stats = core.Stats

// Implication is a mined rule From ⇒ To with its exact confidence
// Hits/Ones.
type Implication = rules.Implication

// Similarity is a mined rule A ≃ B with its exact Jaccard similarity.
type Similarity = rules.Similarity

// RuleGroup is a set of implication rules sharing one antecedent, as
// returned by Expand.
type RuleGroup = rules.Group

// MineImplications returns every implication rule of m with confidence
// ≥ minconf (the DMC-imp pipeline, Algorithm 4.2). Rules arrive in no
// particular order; SortImplications gives a canonical one.
func MineImplications(m *Matrix, minconf Threshold, opts Options) ([]Implication, Stats) {
	return core.DMCImp(m, minconf, opts)
}

// MineSimilarities returns every similarity rule of m with Jaccard
// similarity ≥ minsim (the DMC-sim pipeline, Algorithm 5.1).
func MineSimilarities(m *Matrix, minsim Threshold, opts Options) ([]Similarity, Stats) {
	return core.DMCSim(m, minsim, opts)
}

// SortImplications orders rules by (From, To).
func SortImplications(rs []Implication) { rules.SortImplications(rs) }

// SortSimilarities canonicalizes each rule to A < B and orders by
// (A, B).
func SortSimilarities(rs []Similarity) { rules.SortSimilarities(rs) }

// Expand selects rules reachable from a seed column by repeatedly
// following antecedents — the paper's §6.3 rule-browsing (Fig. 7).
// maxDepth < 0 means unlimited.
func Expand(rs []Implication, seed Col, maxDepth int) []RuleGroup {
	return rules.Expand(rs, seed, maxDepth)
}

// ExpandByLabel is Expand with the seed given as a column label of m;
// ok is false when the label is unknown.
func ExpandByLabel(rs []Implication, m *Matrix, keyword string, maxDepth int) ([]RuleGroup, bool) {
	return rules.ExpandByLabel(rs, m, keyword, maxDepth)
}
