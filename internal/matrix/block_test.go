package matrix

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// randomRows returns n sorted strictly-increasing rows over cols
// columns, including some empty ones.
func randomRows(rng *rand.Rand, n, cols int) [][]Col {
	rows := make([][]Col, n)
	for i := range rows {
		var row []Col
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.2 {
				row = append(row, Col(c))
			}
		}
		rows[i] = row
	}
	return rows
}

// readAllBlocks decodes every frame of a block stream.
func readAllBlocks(t *testing.T, data []byte, cols int) [][]Col {
	t.Helper()
	br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(data)), cols)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Col
	var blk RowBlock
	for {
		err := br.ReadRowBlock(&blk)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blk.Len(); i++ {
			out = append(out, append([]Col(nil), blk.Row(i)...))
		}
	}
}

func rowsEqual(a, b [][]Col) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const cols = 40
	rows := randomRows(rng, 233, cols)
	for _, lim := range []struct{ maxRows, maxBytes int }{
		{0, 0},   // defaults
		{7, 0},   // row limit trips
		{0, 64},  // byte limit trips
		{1, 1},   // one row per frame
		{512, 1}, // byte limit immediately
	} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		bw, err := NewBlockWriter(w, lim.maxRows, lim.maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := bw.WriteRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if bw.Rows() != int64(len(rows)) {
			t.Fatalf("limits %+v: writer counted %d rows, want %d", lim, bw.Rows(), len(rows))
		}
		got := readAllBlocks(t, buf.Bytes(), cols)
		if !rowsEqual(got, rows) {
			t.Fatalf("limits %+v: round trip changed rows", lim)
		}
	}
}

// TestBlockStreamGolden pins the spill bytes: a checkpoint written by
// one build is replayed by the next, so the frame layout must not
// drift. The literal was written by a BlockWriter with maxRows 2 (three
// frames, the last one partial); the fixture has an empty row and
// column ids at the 1/2/3-byte varint edges.
func TestBlockStreamGolden(t *testing.T) {
	rows := [][]Col{{0, 127, 128}, {}, {16383, 16384}, {1, 128, 16383}, {16384}}
	const want = "444d43460202055d02c10403007f01000209cb5379df02ff7f0103017fff7e0104c6efad1701808001"
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	bw, err := NewBlockWriter(w, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := bw.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("BlockWriter = %s\nwant          %s", got, want)
	}
	if bw.Frames() != 3 {
		t.Fatalf("BlockWriter emitted %d frames, want 3", bw.Frames())
	}
	if got := readAllBlocks(t, buf.Bytes(), 16385); !rowsEqual(got, rows) {
		t.Fatal("golden stream did not decode to its rows")
	}
}

func TestBlockCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	bw, err := NewBlockWriter(w, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]Col{{0, 2}, {1}, {0, 1, 2}} {
		if err := bw.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":         []byte("DMCX\x01"),
		"empty":             {},
		"truncated payload": good[:len(good)-1],
		"forged row count":  append(append([]byte{}, good[:5]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0x07, 0x01, 0x00),
		"zero payload":      append(append([]byte{}, good[:5]...), 0x01, 0x00),
	}
	for name, data := range cases {
		br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(data)), 3)
		if err == nil {
			var blk RowBlock
			err = br.ReadRowBlock(&blk)
		}
		if err == nil || err == io.EOF {
			t.Errorf("%s: accepted (err=%v)", name, err)
		} else if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v does not wrap ErrFormat", name, err)
		}
	}

	// Valid frame but wrong column bound: decode must reject.
	br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(good)), 1)
	if err != nil {
		t.Fatal(err)
	}
	var blk RowBlock
	if err := br.ReadRowBlock(&blk); !errors.Is(err, ErrFormat) {
		t.Errorf("over-wide row accepted: %v", err)
	}
}
