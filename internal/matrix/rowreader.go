package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// RowReader streams a matrix file row by row without materializing the
// matrix — the substrate for the two-pass disk-backed mining in package
// stream. Next returns io.EOF after the last row; the returned slice is
// reused between calls.
type RowReader interface {
	NumRows() int
	NumCols() int
	Next() ([]Col, error)
}

// OpenRowReader opens path (.dmt or .dmb) for streaming. The returned
// closer must be closed when done.
func OpenRowReader(path string) (RowReader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var rr RowReader
	switch filepath.Ext(path) {
	case ExtText:
		rr, err = NewTextRowReader(f)
	case ExtBinary:
		rr, err = NewBinaryRowReader(f)
	default:
		err = fmt.Errorf("matrix: unknown extension %q (want %s or %s)", filepath.Ext(path), ExtText, ExtBinary)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return rr, f, nil
}

// TextRowReader streams the text format.
type TextRowReader struct {
	sc         *bufio.Scanner
	rows, cols int
	read       int
	buf        []Col
}

// NewTextRowReader parses the header and prepares to stream rows.
func NewTextRowReader(r io.Reader) (*TextRowReader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrFormat, err)
	}
	var version, rows, cols int
	var magic string
	if _, err := fmt.Sscanf(header, "%s %d %d %d", &magic, &version, &rows, &cols); err != nil || magic != textMagic {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, header)
	}
	if version != textVersion {
		return nil, fmt.Errorf("%w: unsupported text version %d", ErrFormat, version)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: negative dimensions %dx%d", ErrFormat, rows, cols)
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	return &TextRowReader{sc: sc, rows: rows, cols: cols}, nil
}

// NumRows returns the header's row count.
func (t *TextRowReader) NumRows() int { return t.rows }

// NumCols returns the header's column count.
func (t *TextRowReader) NumCols() int { return t.cols }

// Next returns the next row, or io.EOF. The slice is reused.
func (t *TextRowReader) Next() ([]Col, error) {
	if t.read == t.rows {
		return nil, io.EOF
	}
	if !t.sc.Scan() {
		if err := t.sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: truncated: got %d of %d rows", ErrFormat, t.read, t.rows)
	}
	row, err := parseRowLine(t.sc.Text(), t.cols)
	if err != nil {
		return nil, fmt.Errorf("%w: row %d: %v", ErrFormat, t.read, err)
	}
	t.read++
	t.buf = append(t.buf[:0], row...)
	return t.buf, nil
}

// NextLine returns the next raw row line without parsing it, or
// io.EOF. Callers that shard decoding across goroutines (the stream
// package's parallel partitioner) read lines here and parse them on
// workers with ParseTextRow; the returned string is a fresh copy.
func (t *TextRowReader) NextLine() (string, error) {
	if t.read == t.rows {
		return "", io.EOF
	}
	if !t.sc.Scan() {
		if err := t.sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("%w: truncated: got %d of %d rows", ErrFormat, t.read, t.rows)
	}
	t.read++
	return t.sc.Text(), nil
}

// ParseTextRow parses one row line of the text format (the counterpart
// of TextRowReader.NextLine), validating column ids against cols.
func ParseTextRow(line string, cols int) ([]Col, error) {
	return parseRowLine(line, cols)
}

// BinaryRowReader streams the binary format.
type BinaryRowReader struct {
	br         *bufio.Reader
	rows, cols int
	read       int
	buf        []Col
}

// NewBinaryRowReader parses the header and prepares to stream rows.
func NewBinaryRowReader(r io.Reader) (*BinaryRowReader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported binary version", ErrFormat)
	}
	rows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrFormat)
	}
	cols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrFormat)
	}
	if cols > 1<<32 {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrFormat, cols)
	}
	return &BinaryRowReader{br: br, rows: int(rows), cols: int(cols)}, nil
}

// NumRows returns the header's row count.
func (b *BinaryRowReader) NumRows() int { return b.rows }

// NumCols returns the header's column count.
func (b *BinaryRowReader) NumCols() int { return b.cols }

// Next returns the next row, or io.EOF. The slice is reused.
func (b *BinaryRowReader) Next() ([]Col, error) {
	if b.read == b.rows {
		return nil, io.EOF
	}
	row, err := ReadRawRow(b.br, b.cols, b.buf[:0])
	if err != nil {
		return nil, fmt.Errorf("%w: row %d: %v", ErrFormat, b.read, err)
	}
	b.read++
	b.buf = row
	return row, nil
}

// ReadRawRow reads one AppendRawRow record into buf (which it may
// grow), validating against the column count.
func ReadRawRow(br *bufio.Reader, cols int, buf []Col) ([]Col, error) {
	weight, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if int(weight) > cols {
		return nil, fmt.Errorf("row weight %d exceeds %d columns", weight, cols)
	}
	row := buf
	prev := uint64(0)
	for j := 0; j < int(weight); j++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		v := prev + delta
		if j > 0 && delta == 0 {
			return nil, fmt.Errorf("zero delta")
		}
		if v >= uint64(cols) {
			return nil, fmt.Errorf("column %d out of range", v)
		}
		row = append(row, Col(v))
		prev = v
	}
	return row, nil
}
