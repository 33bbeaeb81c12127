package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// Fuzz targets for every decoder: arbitrary input must never panic,
// and anything that parses must re-encode and re-parse to the same
// matrix. Run with `go test -fuzz=FuzzReadBinary ./internal/matrix` to
// explore; as plain tests they exercise the seed corpus.

func FuzzReadText(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteText(&seed, fig1()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("dmc 1 0 0\n")
	f.Add("dmc 1 2 3\n0 1\n\n")
	f.Add("dmc 1 1 1\n0 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		roundTrip(t, m)
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, fig1()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DMCB"))
	f.Add([]byte("DMCB\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		roundTrip(t, m)
	})
}

// fuzzMatrix builds a valid matrix from arbitrary bytes — read as
// uvarints, where 0 ends a row and v > 0 steps v-1 columns past the
// previous one (the row's first column is v-1) — widened by extra
// columns.
func fuzzMatrix(in []byte, extra uint16) *Matrix {
	var rows [][]Col
	var row []Col
	width := 0
	for len(in) > 0 {
		v, n := binary.Uvarint(in)
		if n <= 0 {
			break
		}
		in = in[n:]
		if v == 0 {
			rows, row = append(rows, row), nil
			continue
		}
		if v >= 1<<31 { // a step past any column id, and one that could wrap next
			break
		}
		next := v - 1
		if len(row) > 0 {
			next = uint64(row[len(row)-1]) + v
		}
		if next >= 1<<31 {
			break
		}
		row = append(row, Col(next))
		width = max(width, int(next)+1)
	}
	if row != nil {
		rows = append(rows, row)
	}
	return FromRows(width+int(extra), rows)
}

// FuzzEncodeBinary: for a fuzzMatrix, EncodeBinary must write the
// reference encoder's bytes, and ReadBinary must give the matrix back.
func FuzzEncodeBinary(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0}, uint16(3))
	f.Add([]byte{1, 1, 0, 0x80, 0x01, 0x80, 0x80, 0x01, 0}, uint16(0))
	f.Add([]byte{0x80, 0x80, 0x01, 0x7f, 0, 2, 1, 1}, uint16(500))
	f.Add([]byte("0\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), uint16(0)) // a step that wraps
	f.Fuzz(func(t *testing.T, in []byte, extra uint16) {
		m := fuzzMatrix(in, extra)
		got, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceEncode(m)) {
			t.Fatalf("EncodeBinary differs from the reference encoder")
		}
		back, err := ReadBinary(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("ReadBinary of EncodeBinary's output: %v", err)
		}
		if !matricesEqual(m, back) {
			t.Fatal("binary round trip changed the matrix")
		}
	})
}

// FuzzExtendBinary: over arbitrary old bytes ExtendBinary never panics,
// and what it accepts starts with m's header, then old's body. Over the encoding of a fuzzMatrix's first split rows,
// narrowed by up to narrow columns, it writes EncodeBinary of the whole.
func FuzzExtendBinary(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0), []byte{})
	f.Add([]byte{1, 1, 0, 0x80, 0x01, 0x80, 0x80, 0x01, 0}, uint16(2), uint16(1), uint16(1), []byte("DMCB\x01\x01\x00"))
	f.Add([]byte{0x80, 0x80, 0x01, 0x7f, 0, 2, 1, 1, 0, 0}, uint16(200), uint16(2), uint16(300), []byte("DMCB\x01\x00\x80\x01"))
	f.Add([]byte{0, 0, 0, 5, 0}, uint16(0), uint16(7), uint16(0), []byte("DMCB\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, in []byte, extra, split, narrow uint16, junk []byte) {
		m := fuzzMatrix(in, extra)
		want, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ExtendBinary(junk, m); err == nil {
			r := bytes.NewReader(junk)
			if _, _, err := readBinaryHeader(r); err != nil {
				t.Fatalf("ExtendBinary accepted a header readBinaryHeader rejects: %v", err)
			}
			if !bytes.HasPrefix(got, append(appendBinaryHeader(nil, m), junk[len(junk)-r.Len():]...)) {
				t.Fatal("accepted output does not start with m's header, then old's body")
			}
		}
		r := int(split) % (m.NumRows() + 1)
		old, err := EncodeBinary(prefixOf(m, r, m.NumCols()-int(narrow)%(m.NumCols()+1)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtendBinary(old, m)
		if err != nil {
			t.Fatalf("ExtendBinary over a %d-row prefix: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ExtendBinary over a %d-row prefix differs from EncodeBinary", r)
		}
	})
}

// blockStream writes rows as a block stream with at most maxRows rows
// per frame.
func blockStream(tb testing.TB, maxRows int, rows ...[]Col) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	bw, err := NewBlockWriter(w, maxRows, maxFramePayload)
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range rows {
		if err := bw.WriteRow(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzBlockCodec(f *testing.F) {
	m := fig1()
	rows := make([][]Col, m.NumRows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	seed := blockStream(f, 2, rows...)
	f.Add(seed, uint16(3))
	// One-frame streams, so the fuzzer starts inside a valid frame: an
	// empty row, and a one-column row.
	f.Add(blockStream(f, 1, []Col{}), uint16(8))
	f.Add(blockStream(f, 1, []Col{0}), uint16(1))
	// A bare header, a truncated CRC field, and a bit-flip corpus over
	// the valid seed so the fuzzer explores CRC-mismatch paths.
	f.Add([]byte("DMCF\x02"), uint16(8))
	f.Add([]byte("DMCF\x02\x01\x01\xde\xad"), uint16(1))
	flipped := append([]byte(nil), seed...)
	flipped[6] ^= 0x01
	f.Add(flipped, uint16(3))
	flipped2 := append([]byte(nil), seed...)
	flipped2[len(seed)-1] ^= 0x80
	f.Add(flipped2, uint16(3))
	f.Fuzz(func(t *testing.T, in []byte, cols uint16) {
		br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(in)), int(cols))
		if err != nil {
			return
		}
		// Every frame that decodes must re-encode through BlockWriter
		// as one frame and re-decode to the same rows — the block-codec
		// round trip.
		var blk RowBlock
		for {
			if err := br.ReadRowBlock(&blk); err != nil {
				return
			}
			rows := make([][]Col, blk.Len())
			for i := range rows {
				rows[i] = blk.Row(i)
			}
			rd, err := NewBlockReader(bufio.NewReader(bytes.NewReader(blockStream(t, len(rows), rows...))), int(cols))
			if err != nil {
				t.Fatalf("re-read header: %v", err)
			}
			var back RowBlock
			if err := rd.ReadRowBlock(&back); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if back.Len() != blk.Len() {
				t.Fatalf("round trip changed row count: %d != %d", back.Len(), blk.Len())
			}
			for i := 0; i < blk.Len(); i++ {
				a, b := blk.Row(i), back.Row(i)
				if len(a) != len(b) {
					t.Fatalf("row %d length changed", i)
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("row %d changed", i)
					}
				}
			}
		}
	})
}

func FuzzReadBaskets(f *testing.F) {
	f.Add("a b c\nb c\n# comment\n\na")
	f.Add("")
	f.Add("#only a comment")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadBaskets(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed basket matrix invalid: %v", err)
		}
		if m.Labels() != nil && len(m.Labels()) != m.NumCols() {
			t.Fatalf("label count %d != %d columns", len(m.Labels()), m.NumCols())
		}
	})
}

func FuzzReadLabels(f *testing.F) {
	f.Add("alpha\nbeta\n")
	f.Fuzz(func(t *testing.T, in string) {
		if _, err := ReadLabels(strings.NewReader(in)); err != nil {
			t.Skip()
		}
	})
}

// roundTrip asserts that a successfully parsed matrix survives both
// encoders.
func roundTrip(t *testing.T, m *Matrix) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("parsed matrix invalid: %v", err)
	}
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, m); err != nil {
		t.Fatalf("re-encode text: %v", err)
	}
	if err := WriteBinary(&bb, m); err != nil {
		t.Fatalf("re-encode binary: %v", err)
	}
	mt, err := ReadText(&tb)
	if err != nil {
		t.Fatalf("re-parse text: %v", err)
	}
	mb, err := ReadBinary(&bb)
	if err != nil {
		t.Fatalf("re-parse binary: %v", err)
	}
	if !matricesEqual(m, mt) || !matricesEqual(m, mb) {
		t.Fatal("round trip changed the matrix")
	}
}
