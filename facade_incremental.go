package dmc

import (
	"io"
	"os"

	"dmc/internal/core"
	"dmc/internal/matrix"
)

// This file exposes the append-only growth path: a resumable snapshot
// of the miss-counting state (core.Incremental) plus the basket-append
// parser. Together they let a caller fold new transactions into an
// already-mined dataset and re-derive the exact rule set in O(pairs)
// instead of rescanning every row — the counters the paper maintains
// per candidate are themselves resumable once deletion is suspended.

// Incremental is a resumable mining state: per-column ones counts plus
// hit counters for every column pair that ever co-occurred. Feed it
// rows (AddRow, AddMatrixRows), persist it (EncodeTo /
// DecodeIncrementalState), and derive exact rule sets for any threshold
// and support floor at any time (Implications, Similarities) — the
// results are identical to a full mine of the same rows.
type Incremental = core.Incremental

// NewIncrementalState returns an empty state over cols columns; the
// state grows automatically when wider rows arrive.
func NewIncrementalState(cols int) *Incremental { return core.NewIncremental(cols) }

// BuildIncrementalState folds every row of m into a fresh state — the
// one-time cost of entering the incremental regime for existing data.
func BuildIncrementalState(m *Matrix) *Incremental { return core.BuildIncremental(m) }

// DecodeIncrementalState reads a state written by Incremental.EncodeTo,
// verifying its checksum.
func DecodeIncrementalState(r io.Reader) (*Incremental, error) {
	return core.DecodeIncremental(r)
}

// LoadIncrementalState reads a snapshot file written by
// SaveIncrementalState.
func LoadIncrementalState(path string) (*Incremental, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.DecodeIncremental(f)
}

// SaveIncrementalState writes the snapshot to path (create/truncate).
func SaveIncrementalState(path string, inc *Incremental) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := inc.EncodeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExtendBaskets returns a new matrix of m's rows followed by the basket
// lines parsed from r. Labeled matrices map tokens through the existing
// labels (unseen tokens mint new columns), so column ids — and every
// rule ever mined from them — stay stable across appends. On an
// unlabeled matrix the tokens are column ids, and an append that would
// widen the matrix by more than its count of ones is rejected.
func ExtendBaskets(m *Matrix, r io.Reader) (*Matrix, error) {
	return matrix.ExtendBaskets(m, r)
}
