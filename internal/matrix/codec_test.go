package matrix

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func matricesEqual(a, b *Matrix) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	m := fig1()
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Fatal("text round trip changed the matrix")
	}
}

func TestTextEmptyMatrix(t *testing.T) {
	m := New(7)
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 7 {
		t.Fatalf("got %dx%d", got.NumRows(), got.NumCols())
	}
}

func TestTextEmptyRows(t *testing.T) {
	m := FromRows(3, [][]Col{{}, {1}, {}})
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.RowWeight(0) != 0 || got.RowWeight(1) != 1 {
		t.Fatalf("empty rows not preserved: %d rows", got.NumRows())
	}
}

func TestTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty input":      "",
		"bad magic":        "xyz 1 1 1\n0\n",
		"bad version":      "dmc 9 1 1\n0\n",
		"negative dims":    "dmc 1 -1 3\n",
		"truncated":        "dmc 1 3 3\n0\n",
		"extra rows":       "dmc 1 1 3\n0\n1\n",
		"col out of range": "dmc 1 1 3\n3\n",
		"not a number":     "dmc 1 1 3\nzero\n",
		"decreasing":       "dmc 1 1 3\n2 1\n",
		"duplicate":        "dmc 1 1 3\n1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := fig1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Fatal("binary round trip changed the matrix")
	}
}

func TestBinaryErrors(t *testing.T) {
	m := fig1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := ReadBinary(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated to %d bytes: no error", n)
		}
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: %v", err)
	}
}

// referenceEncode is the binary encoder written out one varint at a
// time, kept as the reference the production encoders must match.
func referenceEncode(m *Matrix) []byte {
	var out bytes.Buffer
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { out.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	out.WriteString("DMCB")
	put(1)
	put(uint64(m.NumRows()))
	put(uint64(m.NumCols()))
	for i := 0; i < m.NumRows(); i++ {
		put(uint64(m.RowWeight(i)))
		prev := uint64(0)
		for _, c := range m.Row(i) {
			put(uint64(c) - prev)
			prev = uint64(c)
		}
	}
	return out.Bytes()
}

// checkEncoders asserts that EncodeBinary and WriteBinary both write
// referenceEncode's bytes for m.
func checkEncoders(t *testing.T, m *Matrix) {
	t.Helper()
	want := referenceEncode(m)
	got, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeBinary differs from the reference encoder (%d vs %d bytes)", len(got), len(want))
	}
	var w bytes.Buffer
	if err := WriteBinary(&w, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("WriteBinary differs from the reference encoder (%d vs %d bytes)", w.Len(), len(want))
	}
}

// TestEncodeBinaryGolden pins the DMCB bytes: store blob names, cache
// keys and fleet replica identities are hashes of them. The literal was
// written by the earlier varint-at-a-time encoder; the fixture has
// empty rows and column ids at the 1/2/3-byte varint edges.
func TestEncodeBinaryGolden(t *testing.T) {
	m := FromRows(16385, [][]Col{
		{},
		{0, 127, 128},
		{127},
		{128},
		{16383},
		{16384},
		{1, 16383, 16384},
		{0, 128, 16384},
		{},
	})
	const want = "444d434201098180010003007f01017f01800101ff7f018080010301fe7f0103008001807f00"
	got, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("EncodeBinary = %x\nwant          %s", got, want)
	}
	checkEncoders(t, m)
}

// TestEncodersAgree: on random matrices — narrow and wide, and large
// enough that WriteBinary flushes its buffer many times, including a
// row bigger than the buffer — both encoders write the reference bytes.
func TestEncodersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		checkEncoders(t, randomMatrix(rng, rng.Intn(60), 1+rng.Intn(300), rng.Float64()*0.3))
	}
	for _, cols := range []int{128, 20000, 3 << 20} {
		checkEncoders(t, randomWide(rng, 4000, cols, 12))
	}
	huge := make([]Col, 0, 40000)
	for c := Col(0); len(huge) < cap(huge); c += 200 {
		huge = append(huge, c)
	}
	checkEncoders(t, FromRows(8<<20, [][]Col{{1}, huge, {}, huge[:10]}))
}

// prefixOf returns m's first r rows as a matrix of cols columns, the
// narrowest cols that holds them when cols is below that.
func prefixOf(m *Matrix, r, cols int) *Matrix {
	for _, row := range m.rows[:r] {
		if len(row) > 0 {
			cols = max(cols, int(row[len(row)-1])+1)
		}
	}
	return FromRows(cols, m.rows[:r])
}

// checkExtend asserts that ExtendBinary over the encoding of m's first
// r rows, at width cols, writes EncodeBinary(m).
func checkExtend(t *testing.T, m *Matrix, r, cols int) {
	t.Helper()
	old, err := EncodeBinary(prefixOf(m, r, cols))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtendBinary(old, m)
	if err != nil {
		t.Fatalf("ExtendBinary at r=%d cols=%d: %v", r, cols, err)
	}
	if want := referenceEncode(m); !bytes.Equal(got, want) {
		t.Fatalf("ExtendBinary at r=%d cols=%d differs from EncodeBinary (%d vs %d bytes)", r, cols, len(got), len(want))
	}
}

// TestExtendBinaryMatchesEncode: splicing new rows onto the encoding of
// a prefix writes the bytes of a whole encode, at random split points
// and where the header's varints grow a byte: rows across 127→128 and
// 16383→16384, columns across 127→128. Empty rows, and splits at 0 and
// at every row, are covered.
func TestExtendBinaryMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		m := randomMatrix(rng, rng.Intn(60), 1+rng.Intn(300), rng.Float64()*0.3)
		n := m.NumRows()
		for _, r := range []int{0, n, rng.Intn(n + 1)} {
			checkExtend(t, m, r, rng.Intn(m.NumCols()+1))
		}
	}
	m := randomMatrix(rng, 200, 140, 0.02) // ~6% of rows empty
	for _, r := range []int{0, 1, 126, 127, 128, 129, 200} {
		for _, cols := range []int{0, 127, 128, 140} {
			checkExtend(t, m, r, cols)
		}
	}
	wide := randomWide(rng, 16500, 1<<15, 3)
	for _, r := range []int{16382, 16383, 16384, 16500} {
		checkExtend(t, wide, r, 127)
		checkExtend(t, wide, r, 1<<14)
	}
}

// TestExtendBinaryErrors: a header ExtendBinary cannot build on is an
// ErrFormat, never a panic.
func TestExtendBinaryErrors(t *testing.T) {
	m := fig1() // 4 rows, 3 columns
	valid, err := EncodeBinary(prefixOf(m, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	more, err := EncodeBinary(FromRows(3, [][]Col{{0}, {1}, {2}, {0, 1}, {2}}))
	if err != nil {
		t.Fatal(err)
	}
	wider, err := EncodeBinary(FromRows(4, [][]Col{{3}}))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":   append([]byte("NOPE"), valid[4:]...),
		"bad version": append([]byte("DMCB\x02"), valid[5:]...),
		"more rows":   more,
		"more cols":   wider,
	}
	header := len(appendBinaryHeader(nil, prefixOf(m, 2, 3)))
	for n := 0; n < header; n++ {
		cases[fmt.Sprintf("header cut at %d", n)] = valid[:n]
	}
	for name, old := range cases {
		if _, err := ExtendBinary(old, m); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

// randomWide draws n rows of up to k ones each over cols columns.
func randomWide(rng *rand.Rand, n, cols, k int) *Matrix {
	b := NewBuilder(cols)
	for i := 0; i < n; i++ {
		row := make([]Col, rng.Intn(k+1))
		for j := range row {
			row[j] = Col(rng.Intn(cols))
		}
		b.AddRow(row)
	}
	return b.Build()
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, rng.Intn(40), 1+rng.Intn(50), rng.Float64()*0.5)
		var tb, bb bytes.Buffer
		if WriteText(&tb, m) != nil || WriteBinary(&bb, m) != nil {
			return false
		}
		mt, err1 := ReadText(&tb)
		mb, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && matricesEqual(m, mt) && matricesEqual(m, mb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []string{"alpha", "beta gamma", ""}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, labels) {
		t.Fatalf("labels = %v, want %v", got, labels)
	}
	if err := WriteLabels(&buf, []string{"has\nnewline"}); err == nil {
		t.Fatal("label with newline accepted")
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	m := fig1()
	m.SetLabels([]string{"a", "b", "c"})
	for _, ext := range []string{ExtText, ExtBinary} {
		path := filepath.Join(dir, "m"+ext)
		if err := Save(path, m); err != nil {
			t.Fatalf("Save %s: %v", ext, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load %s: %v", ext, err)
		}
		if !matricesEqual(m, got) {
			t.Fatalf("%s round trip changed the matrix", ext)
		}
		if !reflect.DeepEqual(got.Labels(), m.Labels()) {
			t.Fatalf("%s labels = %v", ext, got.Labels())
		}
	}
	if err := Save(filepath.Join(dir, "m.bad"), m); err == nil {
		t.Fatal("Save with unknown extension accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.dmt")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestDescribe(t *testing.T) {
	s := Describe("fig1", fig1())
	for _, want := range []string{"fig1", "4 rows", "3 cols", "7 ones"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe = %q, missing %q", s, want)
		}
	}
}

func TestSaveRemovesStaleLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.dmb")
	labeled := fig1()
	labeled.SetLabels([]string{"a", "b", "c"})
	if err := Save(path, labeled); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, fig1()); err != nil { // unlabeled overwrite
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels() != nil {
		t.Fatalf("stale labels survived: %v", got.Labels())
	}
}
