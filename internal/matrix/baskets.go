package matrix

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The basket format is the zero-friction ingestion path: one
// transaction per line, items as whitespace-separated tokens, '#'
// starting a comment line. Column ids are assigned in first-seen order
// and the tokens become the column labels, so mined rules print with
// the original item names.

// ReadBaskets parses the basket format.
func ReadBaskets(r io.Reader) (*Matrix, error) {
	// Appending to an empty labeled matrix mints every column.
	return ExtendBaskets(&Matrix{labels: []string{}}, r)
}

// ExtendBaskets parses basket lines from r and returns a new matrix of
// m's rows followed by the parsed rows — the append-only growth path.
// For a labeled matrix, tokens map through the existing labels and
// unseen tokens mint new columns past the current width, so old column
// ids (and every rule ever mined from them) stay stable. For an
// unlabeled matrix the tokens must be non-negative integer column ids,
// mirroring the text format's convention. Either way the width grows
// by at most the appended rows' count of ones, so a short body cannot
// size every per-column array of the dataset; a wider append is
// rejected with an error wrapping ErrFormat. m itself is not modified;
// the result shares m's row storage.
func ExtendBaskets(m *Matrix, r io.Reader) (*Matrix, error) {
	// The full slice expression makes a minted label reallocate instead
	// of writing into spare capacity of m's labels.
	labels := m.labels[:len(m.labels):len(m.labels)]
	ids := make(map[string]Col, len(labels))
	for i, l := range labels {
		ids[l] = Col(i)
	}
	sc := bufio.NewScanner(r)
	// The buffer starts at the scanner's 4 KiB; a line may reach 64 MiB.
	sc.Buffer(nil, 1<<26)
	b := NewBuilder(m.cols)
	var row []Col
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		row = row[:0]
		for _, tok := range strings.Fields(line) {
			var id Col
			if m.labels == nil {
				c, err := parseCol(tok)
				if err != nil {
					return nil, fmt.Errorf("matrix: appending to an unlabeled dataset: %w", err)
				}
				id = c
			} else if c, seen := ids[tok]; seen {
				id = c
			} else {
				id = Col(len(labels))
				ids[tok] = id
				labels = append(labels, tok)
			}
			row = append(row, id)
		}
		b.AddRow(row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The Builder sorted and deduplicated the new rows and widened to
	// their largest id, and m's rows already hold m's invariants, so the
	// result needs no check of m's rows.
	out := b.Build()
	if ones := out.NumOnes(); out.cols > m.cols+ones {
		return nil, fmt.Errorf("%w: appended column ids widen %d columns to %d, more than the %d ones appended", ErrFormat, m.cols, out.cols, ones)
	}
	if len(m.rows) > 0 {
		out.rows = append(append(make([][]Col, 0, len(m.rows)+len(out.rows)), m.rows...), out.rows...)
	}
	if len(labels) > 0 {
		out.SetLabels(labels)
	}
	return out, nil
}

// parseCol parses a decimal column id token.
func parseCol(tok string) (Col, error) {
	var n uint64
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty item token")
	}
	for _, c := range []byte(tok) {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("item %q is not a column id", tok)
		}
		n = n*10 + uint64(c-'0')
		if n > 1<<31 {
			return 0, fmt.Errorf("column id %q out of range", tok)
		}
	}
	return Col(n), nil
}

// WriteBaskets writes m in the basket format. The matrix must have
// labels, none of which may contain whitespace or start with '#'.
func WriteBaskets(w io.Writer, m *Matrix) error {
	labels := m.Labels()
	if labels == nil {
		return fmt.Errorf("matrix: basket output needs column labels")
	}
	for _, l := range labels {
		if l == "" || strings.ContainsAny(l, " \t\n\r") || strings.HasPrefix(l, "#") {
			return fmt.Errorf("matrix: label %q not representable in basket format", l)
		}
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < m.NumRows(); i++ {
		for j, c := range m.Row(i) {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(labels[c]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
