package core

import (
	"context"

	"dmc/internal/matrix"
)

// Rows is one sequential pass over the data: Row(i) must be called with
// i increasing from 0 to Len()-1. Implementations may reuse the
// returned slice between calls, so callers must not retain it — the
// engines copy what they keep.
type Rows interface {
	Len() int
	Row(i int) []matrix.Col
}

// Source provides repeated passes over a data set whose shape is
// already known (the paper's model: the first pass computed ones(c) and
// partitioned the rows into density buckets; each later scan is a fresh
// pass in bucket order). The in-memory implementation wraps a Matrix
// with a ScanOrder; package stream provides a disk-backed one with
// bounded memory.
type Source interface {
	NumCols() int
	NumRows() int
	// Pass starts a fresh sequential pass.
	Pass() Rows
}

// ConcurrentSource is a Source that can serve one pass to several
// consumers at once: ConcurrentPass(n) starts a single pass and returns
// n independent Rows views of it, each obeying the sequential Row(i)
// contract on its own. A disk-backed source implements this by reading
// and decoding the pass once and broadcasting row batches to all views,
// so n workers cost one read, not n. The parallel source pipelines
// (DMCImpParallelSource, DMCSimParallelSource) require this capability
// for workers > 1 and reject plain Sources with ErrSequentialSource.
type ConcurrentSource interface {
	Source
	ConcurrentPass(n int) []Rows
}

// ContextSource is a ConcurrentSource whose passes observe a context
// and hold resources until released. The mine driver starts every pass
// of one with PassContext and the mine's own Options.Ctx, and releases
// every view before the mine returns, so a source several mines share
// (a kept stream partition) tears a pass down for its own mine's
// cancellation only and is left with no pass running once they end.
type ContextSource interface {
	ConcurrentSource
	PassContext(ctx context.Context, n int) []Rows
}

// SourceError is the panic protocol for pass failures: a Rows
// implementation with no error channel (the engines' scan loops call
// Row directly) aborts a pass by panicking with a value implementing
// this interface — e.g. the stream package's *PassError. The parallel
// source pipelines recover such values on each worker and return them
// as ordinary errors; any other panic is a bug and propagates.
type SourceError interface {
	error
	SourceError()
}

// ReleasableRows is implemented by Rows views that hold resources (a
// slot in a broadcast fan-out, buffered row batches). The source
// pipelines call Release once a worker is done with its view, including
// when the view was abandoned before the final row (the DMC-bitmap
// shared-tail reuse path); Release must be idempotent.
type ReleasableRows interface {
	Rows
	Release()
}

// matrixSource adapts an in-memory matrix (with a scan order) to
// Source.
type matrixSource struct {
	m     *matrix.Matrix
	order matrix.ScanOrder
}

// MatrixSource returns a Source over m visiting rows in the given
// order.
func MatrixSource(m *matrix.Matrix, order matrix.ScanOrder) Source {
	return matrixSource{m, order}
}

func (s matrixSource) NumCols() int { return s.m.NumCols() }
func (s matrixSource) NumRows() int { return len(s.order) }
func (s matrixSource) Pass() Rows   { return matrixRows(s) }

// ConcurrentPass trivially satisfies ConcurrentSource: the matrix is
// random-access, so every view is just an independent cursor.
func (s matrixSource) ConcurrentPass(n int) []Rows {
	views := make([]Rows, n)
	for i := range views {
		views[i] = matrixRows(s)
	}
	return views
}

type matrixRows struct {
	m     *matrix.Matrix
	order matrix.ScanOrder
}

func (r matrixRows) Len() int               { return len(r.order) }
func (r matrixRows) Row(i int) []matrix.Col { return r.m.Row(r.order[i]) }

// colMask is a set of columns, a 0/1 byte per column; nil holds every
// column. The scans take two: alive, the columns a phase reads at all
// (the support floor, the step-3 cutoff), and owned, the columns a
// worker keeps candidate lists for (shardOwnership). Bytes rather than
// bools let cols compact a row with arithmetic instead of a branch per
// column.
type colMask []uint8

// has reports whether the mask holds column c.
func (m colMask) has(c int) bool { return m == nil || m[c] != 0 }

// cols returns the columns of row the mask holds, in row order, reusing
// *buf; a nil mask returns row itself. Every column is written and the
// write index advances by its mask byte, so the walk has no branch on
// the mask: under the snake walk ownership alternates column by column,
// and a branch on it would mispredict about once per two columns of
// every row. The scans dispatch only over a row's owned columns and
// still merge against the whole alive row.
func (m colMask) cols(row []matrix.Col, buf *[]matrix.Col) []matrix.Col {
	if m == nil {
		return row
	}
	if cap(*buf) < len(row) {
		*buf = make([]matrix.Col, 0, 2*len(row))
	}
	out := (*buf)[:len(row)]
	n := 0
	for _, c := range row {
		out[n] = c
		n += int(m[c])
	}
	return out[:n]
}
