package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk formats.
//
// Text ("dmc <version> <rows> <cols>" header, then one row per line of
// space-separated column ids) is the interchange format used by the CLI
// tools; it is diff-able and trivially produced by other tooling.
//
// Binary (magic "DMCB", uvarint header, delta-encoded rows) is ~4-8x
// smaller and faster to scan; dmcgen writes it by default for the large
// generated datasets.

const (
	textMagic     = "dmc"
	textVersion   = 1
	binaryMagic   = "DMCB"
	binaryVersion = 1
)

// ErrFormat is wrapped by all codec parse errors.
var ErrFormat = errors.New("matrix: malformed input")

// WriteText writes m in the text format.
func WriteText(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d %d %d\n", textMagic, textVersion, m.NumRows(), m.NumCols()); err != nil {
		return err
	}
	var sb strings.Builder
	for i := 0; i < m.NumRows(); i++ {
		sb.Reset()
		for j, c := range m.Row(i) {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatUint(uint64(c), 10))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. All structural problems (bad header,
// out-of-range columns, truncation) are reported as errors wrapping
// ErrFormat.
func ReadText(r io.Reader) (*Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrFormat, err)
	}
	var version, rows, cols int
	var magic string
	if _, err := fmt.Sscanf(header, "%s %d %d %d", &magic, &version, &rows, &cols); err != nil || magic != textMagic {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, strings.TrimSpace(header))
	}
	if version != textVersion {
		return nil, fmt.Errorf("%w: unsupported text version %d", ErrFormat, version)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: negative dimensions %dx%d", ErrFormat, rows, cols)
	}
	m := New(cols)
	m.rows = make([][]Col, 0, capHint(rows))
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 1
	for sc.Scan() {
		line++
		if len(m.rows) == rows {
			return nil, fmt.Errorf("%w: more than %d rows", ErrFormat, rows)
		}
		row, err := parseRowLine(sc.Text(), cols)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		m.rows = append(m.rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.rows) != rows {
		return nil, fmt.Errorf("%w: truncated: got %d of %d rows", ErrFormat, len(m.rows), rows)
	}
	return m, nil
}

func parseRowLine(s string, cols int) ([]Col, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, nil
	}
	row := make([]Col, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad column id %q", f)
		}
		if int(v) >= cols {
			return nil, fmt.Errorf("column %d out of range [0,%d)", v, cols)
		}
		if i > 0 && Col(v) <= row[i-1] {
			return nil, fmt.Errorf("columns not strictly increasing at %q", f)
		}
		row[i] = Col(v)
	}
	return row, nil
}

// binaryChunk is the buffer WriteBinary streams a matrix through.
const binaryChunk = 64 << 10

// WriteBinary writes m in the binary format. It fills one binaryChunk
// buffer at a time, so a large matrix is never held twice in memory.
func WriteBinary(w io.Writer, m *Matrix) error {
	width := varintWidth(m)
	buf := appendBinaryHeader(make([]byte, 0, binaryChunk), m)
	for _, row := range m.rows {
		if len(buf)+(len(row)+1)*width > binaryChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = AppendRawRow(buf, row)
	}
	_, err := w.Write(buf)
	return err
}

// EncodeBinary returns m in the binary format as a byte slice — the
// content-addressed blob form used by the dataset store, where the
// bytes are hashed before they are committed.
func EncodeBinary(m *Matrix) ([]byte, error) {
	return encodeBinary(m, nil, m.rows), nil
}

// ExtendBinary returns m in the binary format, given old, the binary
// encoding of m's first rows: m's header, then old's row records byte
// for byte, then the records of m's remaining rows. A row record does
// not depend on the header, so when old is EncodeBinary of m's first
// rows the result is EncodeBinary(m), and the cost follows the new rows
// plus a copy. Only old's header is parsed; its rows are the caller's
// promise (the dataset store checks old against its content address
// first). A malformed header, or one declaring more rows or columns
// than m has, is an error wrapping ErrFormat.
func ExtendBinary(old []byte, m *Matrix) ([]byte, error) {
	r := bytes.NewReader(old)
	rows, cols, err := readBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	if rows > uint64(m.NumRows()) || cols > uint64(m.NumCols()) {
		return nil, fmt.Errorf("%w: extending a %dx%d encoding to a %dx%d matrix", ErrFormat, rows, cols, m.NumRows(), m.NumCols())
	}
	return encodeBinary(m, old[len(old)-r.Len():], m.rows[rows:]), nil
}

// encodeBinary returns m's header, then body (the row records of m's
// first rows), then the records of tail, m's remaining rows. The slice
// is allocated once, at a size no such encoding can exceed: every
// varint of a row record is at most NumCols.
func encodeBinary(m *Matrix, body []byte, tail [][]Col) []byte {
	ones := 0
	for _, row := range tail {
		ones += len(row)
	}
	size := len(binaryMagic) + 3*binary.MaxVarintLen64 + len(body) + (len(tail)+ones)*varintWidth(m)
	buf := append(appendBinaryHeader(make([]byte, 0, size), m), body...)
	for _, row := range tail {
		buf = AppendRawRow(buf, row)
	}
	return buf
}

// appendBinaryHeader appends the magic, the version and m's dimensions.
func appendBinaryHeader(dst []byte, m *Matrix) []byte {
	dst = append(dst, binaryMagic...)
	dst = binary.AppendUvarint(dst, binaryVersion)
	dst = binary.AppendUvarint(dst, uint64(m.NumRows()))
	return binary.AppendUvarint(dst, uint64(m.NumCols()))
}

// varintWidth bounds the bytes of every varint in m's row records: a
// row weight is at most NumCols and a column delta is below it.
func varintWidth(m *Matrix) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(m.NumCols()))
}

// EncodeLabels returns the labels file contents as a byte slice.
func EncodeLabels(labels []string) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readBinaryHeader reads the binary format's magic, version and
// dimensions, leaving r at the first row record.
func readBinaryHeader(r interface {
	io.Reader
	io.ByteReader
}) (rows, cols uint64, err error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != binaryMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated varint: %v", ErrFormat, err)
		}
		return v, nil
	}
	version, err := readUvarint()
	if err != nil {
		return 0, 0, err
	}
	if version != binaryVersion {
		return 0, 0, fmt.Errorf("%w: unsupported binary version %d", ErrFormat, version)
	}
	if rows, err = readUvarint(); err != nil {
		return 0, 0, err
	}
	if cols, err = readUvarint(); err != nil {
		return 0, 0, err
	}
	if cols > 1<<32 {
		return 0, 0, fmt.Errorf("%w: implausible column count %d", ErrFormat, cols)
	}
	return rows, cols, nil
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	rows, cols, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	m := New(int(cols))
	m.rows = make([][]Col, 0, capHint(int(rows)))
	for i := uint64(0); i < rows; i++ {
		// Rows grow by append so a forged header cannot force a huge
		// allocation before the (finite) input runs out.
		row, err := ReadRawRow(br, int(cols), nil)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrFormat, i, err)
		}
		m.rows = append(m.rows, row)
	}
	return m, nil
}

// capHint bounds header-declared counts used as allocation hints, so a
// forged header cannot trigger an out-of-memory before parsing fails on
// the actual (finite) input.
func capHint(n int) int {
	const lim = 1 << 16
	if n < 0 {
		return 0
	}
	if n > lim {
		return lim
	}
	return n
}

// WriteLabels writes one column label per line.
func WriteLabels(w io.Writer, labels []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range labels {
		if strings.ContainsAny(l, "\n\r") {
			return fmt.Errorf("matrix: label %q contains newline", l)
		}
		if _, err := bw.WriteString(l + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLabels reads labels written by WriteLabels.
func ReadLabels(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []string
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}
