package matrix

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func drainReader(t *testing.T, rr RowReader) [][]Col {
	t.Helper()
	var out [][]Col
	for {
		row, err := rr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]Col(nil), row...))
	}
}

func TestRowReadersMatchBulkDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 50, 30, 0.2)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, m); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTextRowReader(&tb)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBinaryRowReader(&bb)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []RowReader{tr, br} {
		if rr.NumRows() != m.NumRows() || rr.NumCols() != m.NumCols() {
			t.Fatalf("dims %dx%d", rr.NumRows(), rr.NumCols())
		}
	}
	for name, got := range map[string][][]Col{"text": drainReader(t, tr), "binary": drainReader(t, br)} {
		if len(got) != m.NumRows() {
			t.Fatalf("%s: %d rows", name, len(got))
		}
		for i := range got {
			want := m.Row(i)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s row %d = %v, want %v", name, i, got[i], m.Row(i))
			}
		}
	}
}

func TestRowReaderEOFIsSticky(t *testing.T) {
	var b bytes.Buffer
	if err := WriteBinary(&b, fig1()); err != nil {
		t.Fatal(err)
	}
	rr, err := NewBinaryRowReader(&b)
	if err != nil {
		t.Fatal(err)
	}
	drainReader(t, rr)
	for i := 0; i < 3; i++ {
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("post-EOF Next = %v", err)
		}
	}
}

func TestRowReaderErrors(t *testing.T) {
	if _, err := NewTextRowReader(strings.NewReader("bogus\n")); err == nil {
		t.Error("bad text header accepted")
	}
	if _, err := NewBinaryRowReader(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad binary magic accepted")
	}
	// Truncated text body: header claims 3 rows, only 1 present.
	rr, err := NewTextRowReader(strings.NewReader("dmc 1 3 3\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Next(); err == nil {
		t.Error("truncated body not reported")
	}
	// Out-of-range column mid-stream.
	rr, err = NewTextRowReader(strings.NewReader("dmc 1 1 3\n7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Next(); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestOpenRowReader(t *testing.T) {
	dir := t.TempDir()
	m := fig1()
	for _, ext := range []string{ExtText, ExtBinary} {
		path := filepath.Join(dir, "m"+ext)
		if err := Save(path, m); err != nil {
			t.Fatal(err)
		}
		rr, closer, err := OpenRowReader(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := drainReader(t, rr)
		closer.Close()
		if len(rows) != m.NumRows() {
			t.Fatalf("%s: %d rows", ext, len(rows))
		}
	}
	if _, _, err := OpenRowReader(filepath.Join(dir, "missing.dmb")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "m.weird")
	if err := Save(filepath.Join(dir, "m"+ExtText), m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenRowReader(bad); err == nil {
		t.Error("unknown extension accepted")
	}
}

func TestRawRowRoundTrip(t *testing.T) {
	rows := [][]Col{{}, {0}, {1, 5, 9}, {0, 1, 2, 3}}
	var enc []byte
	for _, r := range rows {
		enc = AppendRawRow(enc, r)
	}
	br := bufio.NewReader(bytes.NewReader(enc))
	for i, want := range rows {
		got, err := ReadRawRow(br, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d = %v, want %v", i, got, want)
			}
		}
	}
}

func TestReadRawRowErrors(t *testing.T) {
	// Column out of range for declared width.
	enc := AppendRawRow(nil, []Col{4})
	if _, err := ReadRawRow(bufio.NewReader(bytes.NewReader(enc)), 3, nil); err == nil {
		t.Error("out-of-range raw row accepted")
	}
	// Truncated stream.
	if _, err := ReadRawRow(bufio.NewReader(bytes.NewReader(nil)), 3, nil); err == nil {
		t.Error("empty raw stream accepted")
	}
}
