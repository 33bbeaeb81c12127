package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// writeV1Stream encodes rows as a version-1 block stream: the frame
// layout of version 2 without the per-frame CRC.
func writeV1Stream(t *testing.T, rows [][]Col, perFrame int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(blockMagic)
	buf.WriteByte(1)
	for start := 0; start < len(rows); start += perFrame {
		end := start + perFrame
		if end > len(rows) {
			end = len(rows)
		}
		var payload []byte
		for _, row := range rows[start:end] {
			payload = AppendRawRow(payload, row)
		}
		var hdr [2 * binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(end-start))
		n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
		buf.Write(hdr[:n])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// TestBlockV1Refused: a version-1 stream carries no CRC, so nothing
// could tell its rows from corrupted ones. The reader refuses it at the
// header instead of decoding a single frame.
func TestBlockV1Refused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const cols = 32
	data := writeV1Stream(t, randomRows(rng, 61, cols), 8)
	_, err := NewBlockReader(bufio.NewReader(bytes.NewReader(data)), cols)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("version-1 stream: got %v, want ErrFormat", err)
	}
}

func TestBlockWriterEmitsV2(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := NewBlockWriter(w, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()
	if string(head[:4]) != blockMagic || head[4] != blockVersion {
		t.Fatalf("writer header = % x, want magic+v%d", head, blockVersion)
	}
}

// TestBlockCRCDetectsFlip is the exactness guard: flip any single byte
// after the stream header of a v2 stream and the reader must either
// error (payload flips specifically as ErrFrameCRC) or — when the flip
// lands in redundant header space — still decode the exact original
// rows. Never silently different rows.
func TestBlockCRCDetectsFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const cols = 24
	rows := randomRows(rng, 37, cols)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	bw, err := NewBlockWriter(w, 8, 0)
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
	good := buf.Bytes()

	crcFailures := 0
	for i := 5; i < len(good); i++ { // skip magic+version
		data := append([]byte(nil), good...)
		data[i] ^= 0x40
		br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(data)), cols)
		if err != nil {
			continue
		}
		var got [][]Col
		var blk RowBlock
		for err == nil {
			err = br.ReadRowBlock(&blk)
			if err == nil {
				for j := 0; j < blk.Len(); j++ {
					got = append(got, append([]Col(nil), blk.Row(j)...))
				}
			}
		}
		if errors.Is(err, ErrFrameCRC) {
			crcFailures++
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("flip at %d: ErrFrameCRC not wrapped with ErrFormat: %v", i, err)
			}
			continue
		}
		if err == io.EOF && !rowsEqual(got, rows) {
			t.Fatalf("flip at %d decoded cleanly to DIFFERENT rows — silent corruption", i)
		}
	}
	if crcFailures == 0 {
		t.Fatal("no flip triggered a CRC failure — checksum not effective")
	}
}

// TestBlockCRCRoundTripAfterFrames checks Frames() advances only on
// fully verified frames — the counter bucket re-reads key off.
func TestBlockCRCRoundTripAfterFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const cols = 16
	rows := randomRows(rng, 20, cols)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	bw, err := NewBlockWriter(w, 5, 0)
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
	br, err := NewBlockReader(bufio.NewReader(bytes.NewReader(buf.Bytes())), cols)
	if err != nil {
		t.Fatal(err)
	}
	var blk RowBlock
	want := int64(0)
	for {
		if got := br.Frames(); got != want {
			t.Fatalf("Frames() = %d before frame %d", got, want)
		}
		if err := br.ReadRowBlock(&blk); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		want++
	}
	if want != bw.Frames() {
		t.Fatalf("read %d frames, writer emitted %d", want, bw.Frames())
	}
}
