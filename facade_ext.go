package dmc

import (
	"io"
	"os"

	"dmc/internal/core"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

// This file extends the facade beyond the paper's core pipelines: the
// streaming file miners (bounded-memory two-pass operation straight
// from disk), the §7 divide-and-conquer parallel pipelines, and the §7
// rule-grouping helper.

// MineImplicationsFile mines implication rules directly from a matrix
// file (.dmt or .dmb) without loading it into memory: one partitioning
// pass builds the §4.1 density buckets in temporary spill files, and
// each pipeline phase streams them back sparsest-first. Memory is
// bounded by the counter array, exactly the paper's operating regime.
func MineImplicationsFile(path string, minconf Threshold, opts Options) ([]Implication, Stats, error) {
	return stream.MineImplicationsCfg(path, minconf, opts, StreamConfig{Workers: 1})
}

// MineSimilaritiesFile is MineImplicationsFile for similarity rules.
func MineSimilaritiesFile(path string, minsim Threshold, opts Options) ([]Similarity, Stats, error) {
	return stream.MineSimilaritiesCfg(path, minsim, opts, StreamConfig{Workers: 1})
}

// StreamConfig configures the out-of-core miners: the worker fan-out
// for the partitioning pass and the replay passes, cancellation, and
// the temporary directory the density buckets spill to. The zero value
// runs one worker per CPU; MineImplicationsFile and
// MineSimilaritiesFile run with Workers: 1. Spills are always
// CRC-checked frames; frame size and prefetch depth are fixed.
//
// Setting CheckpointDir makes the partitioning pass durable: the
// density buckets and their manifest survive the process, and a later
// run over the same input with Resume set skips the partitioning scan
// and goes straight to counting (OnResume fires when that happens).
// This is the crash-safety primitive dmcserve's async job subsystem
// builds on — a SIGKILL'd job resumes from its checkpoint instead of
// restarting, with byte-identical results.
type StreamConfig = stream.Config

// MineImplicationsFileCfg is MineImplicationsFile with explicit
// streaming configuration — most importantly cfg.Workers, which mines
// the spilled buckets with the §7 column-partitioned parallel pipeline
// while a single broadcast reader performs each disk pass once.
func MineImplicationsFileCfg(path string, minconf Threshold, opts Options, cfg StreamConfig) ([]Implication, Stats, error) {
	return stream.MineImplicationsCfg(path, minconf, opts, cfg)
}

// MineSimilaritiesFileCfg is MineImplicationsFileCfg for similarity
// rules.
func MineSimilaritiesFileCfg(path string, minsim Threshold, opts Options, cfg StreamConfig) ([]Similarity, Stats, error) {
	return stream.MineSimilaritiesCfg(path, minsim, opts, cfg)
}

// MineImplicationsParallel runs the DMC-imp pipeline with the columns
// partitioned across the given number of workers (a snake walk over the
// ones-sorted columns, so dense columns spread evenly) — the
// divide-and-conquer parallelization sketched in the paper's §7.
// workers ≤ 0 means one worker per CPU. The rule set is identical to
// MineImplications'; the counter-array memory is what gets divided
// across workers, while every worker scans every row and any DMC-bitmap
// tail is built once and shared.
func MineImplicationsParallel(m *Matrix, minconf Threshold, opts Options, workers int) ([]Implication, Stats) {
	return core.DMCImpParallel(m, minconf, opts, workers)
}

// MineSimilaritiesParallel is MineImplicationsParallel for similarity
// rules.
func MineSimilaritiesParallel(m *Matrix, minsim Threshold, opts Options, workers int) ([]Similarity, Stats) {
	return core.DMCSimParallel(m, minsim, opts, workers)
}

// Clusters groups columns into connected components of the
// similarity-rule graph — the paper's §7 route from pairwise rules to
// structure over three or more columns (mirror families, synonym sets).
// Components come back largest first; singletons are omitted.
func Clusters(rs []Similarity) [][]Col {
	return rules.Clusters(rs)
}

// EquivalenceGroups returns the strongly connected components of the
// implication-rule graph: sets of columns that all imply each other at
// the mining threshold (e.g. a topic's core vocabulary).
func EquivalenceGroups(rs []Implication) [][]Col {
	return rules.EquivalenceGroups(rs)
}

// SaveImplications writes mined rules to a rule file that
// LoadImplications (and the dmcrules tool) reads back losslessly.
func SaveImplications(path string, rs []Implication) error {
	return saveRules(path, func(w io.Writer) error { return rules.WriteImplications(w, rs) })
}

// LoadImplications reads a rule file written by SaveImplications.
func LoadImplications(path string) ([]Implication, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rules.ReadImplications(f)
}

// SaveSimilarities writes mined similarity rules to a rule file.
func SaveSimilarities(path string, rs []Similarity) error {
	return saveRules(path, func(w io.Writer) error { return rules.WriteSimilarities(w, rs) })
}

// LoadSimilarities reads a rule file written by SaveSimilarities.
func LoadSimilarities(path string) ([]Similarity, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rules.ReadSimilarities(f)
}

func saveRules(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CapturePass runs f, converting the pipelines' SourceError panic
// protocol (cancellation via Options.Ctx, memory-budget overflow, pass
// failures) into an ordinary error — wrap MineImplications /
// MineSimilarities calls that set Options.Ctx or MemBudgetBytes.
func CapturePass(f func()) error { return core.CapturePass(f) }

// CancelError is the error a mine returns when Options.Ctx is
// cancelled; it unwraps to the context's error.
type CancelError = core.CancelError

// BudgetError is the error a mine returns when the modeled counter
// memory exceeds Options.MemBudgetBytes and the DMC-bitmap endgame
// cannot absorb the remaining rows.
type BudgetError = core.BudgetError

// MineImplicationsBudget is MineImplications under a hard memory
// budget (opts.MemBudgetBytes) with graceful degradation: if the
// resident pipeline overflows the budget and the DMC-bitmap endgame
// cannot absorb the tail, the matrix is spilled under cfg.TmpDir and
// re-mined through the partitioned out-of-core engine — the paper's
// §4.1 density-bucket re-ordering plus disk-backed passes — instead of
// failing. The rule set is identical either way.
func MineImplicationsBudget(m *Matrix, minconf Threshold, opts Options, cfg StreamConfig) ([]Implication, Stats, error) {
	return mineBudget(m, minconf, opts, cfg, core.DMCImp, stream.MineImplicationsCfg)
}

// MineSimilaritiesBudget is MineImplicationsBudget for similarity
// rules.
func MineSimilaritiesBudget(m *Matrix, minsim Threshold, opts Options, cfg StreamConfig) ([]Similarity, Stats, error) {
	return mineBudget(m, minsim, opts, cfg, core.DMCSim, stream.MineSimilaritiesCfg)
}

// mineBudget runs one family's resident miner down stream.MineResident,
// the degrade rung dmcserve and dmcmine share, with file as the
// out-of-core engine.
func mineBudget[R any](m *Matrix, t Threshold, opts Options, cfg StreamConfig,
	mine func(*Matrix, Threshold, Options) ([]R, Stats),
	file func(string, Threshold, Options, StreamConfig) ([]R, Stats, error)) ([]R, Stats, error) {
	return stream.MineResident(m, cfg.TmpDir, func() ([]R, Stats, error) {
		var rs []R
		var st Stats
		err := core.CapturePass(func() { rs, st = mine(m, t, opts) })
		return rs, st, err
	}, func(path string) ([]R, Stats, error) { return file(path, t, opts, cfg) })
}

// MineImplicationsEach mines like MineImplications but streams each
// rule to fn instead of materializing the slice — for crawl-scale data
// where the rule volume itself is the memory problem.
func MineImplicationsEach(m *Matrix, minconf Threshold, opts Options, fn func(Implication)) Stats {
	return core.DMCImpEach(m, minconf, opts, fn)
}

// MineSimilaritiesEach is MineImplicationsEach for similarity rules.
func MineSimilaritiesEach(m *Matrix, minsim Threshold, opts Options, fn func(Similarity)) Stats {
	return core.DMCSimEach(m, minsim, opts, fn)
}
