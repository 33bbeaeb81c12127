// Package matrix provides the sparse 0/1 matrix substrate shared by all
// mining engines in this repository.
//
// Following the paper's data model (§2), a matrix M has n rows
// (transactions) and m columns (attributes); each row is stored as a
// sorted slice of the column ids that are 1 in that row. The package also
// provides the row-density bucketing of §4.1 (sparsest-first scan order),
// streaming row scanners that model the paper's two passes over the data,
// and text/binary codecs for datasets on disk.
package matrix

import (
	"fmt"
	"sort"
	"strconv"
)

// Col identifies a column (attribute). Column ids are dense: a matrix
// with NumCols() == m uses ids 0..m-1.
type Col = uint32

// Matrix is an n×m 0/1 matrix in sparse row-major form.
//
// Invariants (established by Builder and checked by Validate): every row
// is strictly increasing, and every column id is < NumCols().
type Matrix struct {
	rows   [][]Col
	cols   int
	labels []string // optional, one per column
}

// New returns an empty matrix with m columns.
func New(m int) *Matrix {
	if m < 0 {
		panic("matrix: negative column count")
	}
	return &Matrix{cols: m}
}

// FromRows builds a matrix directly from pre-normalized rows. It copies
// nothing; callers must not mutate the slices afterwards. It panics if a
// row violates the invariants — use Builder for untrusted input.
func FromRows(m int, rows [][]Col) *Matrix {
	mx := New(m)
	for i, r := range rows {
		if err := checkRow(m, r); err != nil {
			panic(fmt.Sprintf("matrix: row %d: %v", i, err))
		}
	}
	mx.rows = rows
	return mx
}

func checkRow(m int, r []Col) error {
	for i, c := range r {
		if int(c) >= m {
			return fmt.Errorf("column %d out of range [0,%d)", c, m)
		}
		if i > 0 && r[i-1] >= c {
			return fmt.Errorf("columns not strictly increasing at index %d", i)
		}
	}
	return nil
}

// NumRows returns n, the number of transactions.
func (m *Matrix) NumRows() int { return len(m.rows) }

// NumCols returns m, the number of attributes.
func (m *Matrix) NumCols() int { return m.cols }

// Row returns the sorted column ids of row i. The returned slice is
// owned by the matrix; callers must not modify it.
func (m *Matrix) Row(i int) []Col { return m.rows[i] }

// RowWeight returns the number of 1s in row i.
func (m *Matrix) RowWeight(i int) int { return len(m.rows[i]) }

// Ones returns ones(c) for every column: the number of rows in which the
// column is 1. This is what the paper's first pass computes.
func (m *Matrix) Ones() []int {
	ones := make([]int, m.cols)
	for _, r := range m.rows {
		for _, c := range r {
			ones[c]++
		}
	}
	return ones
}

// NumOnes returns the total number of 1s in the matrix.
func (m *Matrix) NumOnes() int {
	t := 0
	for _, r := range m.rows {
		t += len(r)
	}
	return t
}

// SetLabels attaches human-readable column names, used by the text-mining
// tooling. len(labels) must equal NumCols().
func (m *Matrix) SetLabels(labels []string) {
	if len(labels) != m.cols {
		panic(fmt.Sprintf("matrix: %d labels for %d columns", len(labels), m.cols))
	}
	m.labels = labels
}

// Labels returns the column names, or nil if none were set.
func (m *Matrix) Labels() []string { return m.labels }

// Label returns the name of column c, or a generated "c<id>" placeholder
// when no labels are attached.
func (m *Matrix) Label(c Col) string {
	if m.labels != nil {
		return m.labels[c]
	}
	return "c" + strconv.FormatUint(uint64(c), 10)
}

// Validate checks the row invariants and returns the first violation.
func (m *Matrix) Validate() error {
	for i, r := range m.rows {
		if err := checkRow(m.cols, r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// PruneColumns removes every column for which keep returns false and
// renumbers the survivors densely, preserving relative order. It returns
// the new matrix (labels carried over) and the mapping from new ids to
// old ids. Rows left empty are dropped, mirroring how the paper derives
// WlogP and NewsP from the unpruned sets.
func (m *Matrix) PruneColumns(keep func(c Col, ones int) bool) (*Matrix, []Col) {
	ones := m.Ones()
	remap := make([]int32, m.cols)
	var newToOld []Col
	next := int32(0)
	for c := 0; c < m.cols; c++ {
		if keep(Col(c), ones[c]) {
			remap[c] = next
			newToOld = append(newToOld, Col(c))
			next++
		} else {
			remap[c] = -1
		}
	}
	out := New(int(next))
	for _, r := range m.rows {
		var nr []Col
		for _, c := range r {
			if nc := remap[c]; nc >= 0 {
				nr = append(nr, Col(nc))
			}
		}
		if len(nr) > 0 {
			out.rows = append(out.rows, nr)
		}
	}
	if m.labels != nil {
		lbl := make([]string, len(newToOld))
		for i, old := range newToOld {
			lbl[i] = m.labels[old]
		}
		out.labels = lbl
	}
	return out, newToOld
}

// Transpose returns the transposed matrix: rows become columns and vice
// versa. The link-graph generator uses it to derive plinkT from plinkF.
func (m *Matrix) Transpose() *Matrix {
	ones := m.Ones()
	rows := make([][]Col, m.cols)
	for c, k := range ones {
		if k > 0 {
			rows[c] = make([]Col, 0, k)
		}
	}
	for i, r := range m.rows {
		for _, c := range r {
			rows[c] = append(rows[c], Col(i))
		}
	}
	t := New(len(m.rows))
	t.rows = rows
	return t
}

// Builder accumulates rows from untrusted input, normalizing each row
// (sorting and deduplicating) and growing the column count as needed.
type Builder struct {
	rows [][]Col
	cols int
}

// NewBuilder returns a Builder that will produce a matrix with at least
// minCols columns.
func NewBuilder(minCols int) *Builder {
	return &Builder{cols: minCols}
}

// AddRow appends a row. The input is copied, sorted and deduplicated, so
// the caller may reuse the slice. Empty rows are kept: they carry no
// pairs but still count toward n.
func (b *Builder) AddRow(cols []Col) {
	r := make([]Col, len(cols))
	copy(r, cols)
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	r = dedupSorted(r)
	for _, c := range r {
		if int(c) >= b.cols {
			b.cols = int(c) + 1
		}
	}
	b.rows = append(b.rows, r)
}

// NumRows returns the number of rows added so far.
func (b *Builder) NumRows() int { return len(b.rows) }

// Build finalizes the matrix. The Builder must not be used afterwards.
func (b *Builder) Build() *Matrix {
	m := New(b.cols)
	m.rows = b.rows
	b.rows = nil
	return m
}

func dedupSorted(r []Col) []Col {
	if len(r) < 2 {
		return r
	}
	w := 1
	for i := 1; i < len(r); i++ {
		if r[i] != r[w-1] {
			r[w] = r[i]
			w++
		}
	}
	return r[:w]
}
