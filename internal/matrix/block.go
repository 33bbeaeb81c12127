package matrix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrFrameCRC marks a frame whose payload failed its CRC-32C check.
// It is always wrapped together with ErrFormat, so existing
// errors.Is(err, ErrFormat) checks still see corruption; callers that
// can re-read the bytes (the stream replay path) match ErrFrameCRC
// specifically to retry the read before giving up.
var ErrFrameCRC = errors.New("matrix: frame CRC mismatch")

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The block codec frames raw-row records (uvarint weight, then
// delta-encoded uvarint column ids — AppendRawRow's record format) into
// self-describing frames of N rows each, so streamed replay can decode
// a whole frame from one contiguous buffer instead of paying a bufio
// call per varint. A stream is:
//
//	"DMCF" | uvarint version (2) | frame*
//	frame: uvarint rowCount | uvarint payloadBytes | crc32 (4B LE) | payload
//
// where payload is rowCount back-to-back raw-row records. The frame
// header lets a reader size one io.ReadFull per frame and lets fuzzing
// and corruption checks validate the payload length exactly. The
// CRC-32C (Castagnoli) of the payload means a flipped bit in a spill
// file is detected as ErrFrameCRC before any row is decoded — the
// exactness guarantee requires that corruption never becomes a
// plausible-but-wrong row. Version 2 is the only version: a stream of
// any other version (version 1 carried no CRC) is refused.

const (
	blockMagic   = "DMCF"
	blockVersion = 2

	// DefaultBlockRows and DefaultBlockBytes bound a frame: a frame
	// closes at whichever limit trips first. 512 rows keeps the
	// consumer's working set inside L2 for typical sparse rows; 256KB
	// bounds the decode buffer for dense ones.
	DefaultBlockRows  = 512
	DefaultBlockBytes = 256 << 10

	// Guards against forged frame headers: no frame we write comes
	// near these, so anything beyond them is corruption, not data.
	maxFrameRows    = 1 << 24
	maxFramePayload = 1 << 27
)

// RowBlock is one decoded frame: rows stored as a flat column array
// plus offsets, so a block costs two allocations no matter how many
// rows it holds and Row is a slice expression. Rows share the block's
// backing array — the usual Rows reuse contract applies, and a block
// must not be recycled while any of its rows is still referenced.
type RowBlock struct {
	offs []int32 // len = rows+1, offs[0] = 0
	cols []Col
}

// Len returns the number of rows in the block.
func (b *RowBlock) Len() int {
	if len(b.offs) == 0 {
		return 0
	}
	return len(b.offs) - 1
}

// Row returns row i of the block, aliasing the block's storage.
func (b *RowBlock) Row(i int) []Col { return b.cols[b.offs[i]:b.offs[i+1]] }

// Reset empties the block, keeping its capacity.
func (b *RowBlock) Reset() {
	b.offs = append(b.offs[:0], 0)
	b.cols = b.cols[:0]
}

// Append copies one row into the block.
func (b *RowBlock) Append(row []Col) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
	b.cols = append(b.cols, row...)
	b.offs = append(b.offs, int32(len(b.cols)))
}

// AppendRawRow appends one raw-row record (uvarint weight, then
// delta-encoded uvarint column ids) to dst and returns the extended
// slice. It is the one row encoder: the DMCB body and the block
// writer's frame payloads are both built with it.
func AppendRawRow(dst []byte, row []Col) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	prev := uint64(0)
	for _, c := range row {
		dst = binary.AppendUvarint(dst, uint64(c)-prev)
		prev = uint64(c)
	}
	return dst
}

// BlockWriter writes a block-framed row stream: the header immediately,
// then one frame whenever the row- or byte-limit trips, and the final
// partial frame on Flush.
type BlockWriter struct {
	w        *bufio.Writer
	maxRows  int
	maxBytes int
	payload  []byte
	nrows    int
	rows     int64
	frames   int64
}

// NewBlockWriter writes the stream header and returns a writer.
// maxRows/maxBytes ≤ 0 select the defaults.
func NewBlockWriter(w *bufio.Writer, maxRows, maxBytes int) (*BlockWriter, error) {
	if maxRows <= 0 {
		maxRows = DefaultBlockRows
	}
	if maxBytes <= 0 {
		maxBytes = DefaultBlockBytes
	}
	if _, err := w.WriteString(blockMagic); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], blockVersion)
	if _, err := w.Write(buf[:n]); err != nil {
		return nil, err
	}
	return &BlockWriter{w: w, maxRows: maxRows, maxBytes: maxBytes}, nil
}

// WriteRow appends one row, flushing a frame when a limit trips.
func (bw *BlockWriter) WriteRow(row []Col) error {
	bw.payload = AppendRawRow(bw.payload, row)
	bw.nrows++
	if bw.nrows >= bw.maxRows || len(bw.payload) >= bw.maxBytes {
		return bw.flushFrame()
	}
	return nil
}

// Rows returns the total row count written so far (including buffered).
func (bw *BlockWriter) Rows() int64 { return bw.rows + int64(bw.nrows) }

// Frames returns the number of frames emitted so far.
func (bw *BlockWriter) Frames() int64 { return bw.frames }

func (bw *BlockWriter) flushFrame() error {
	if bw.nrows == 0 {
		return nil
	}
	if err := writeFrame(bw.w, bw.nrows, bw.payload); err != nil {
		return err
	}
	bw.rows += int64(bw.nrows)
	bw.frames++
	bw.nrows = 0
	bw.payload = bw.payload[:0]
	return nil
}

// Flush writes any buffered partial frame and flushes the underlying
// buffered writer. The stream stays valid for more WriteRow calls.
func (bw *BlockWriter) Flush() error {
	if err := bw.flushFrame(); err != nil {
		return err
	}
	return bw.w.Flush()
}

func writeFrame(w *bufio.Writer, nrows int, payload []byte) error {
	var buf [2*binary.MaxVarintLen64 + crc32.Size]byte
	n := binary.PutUvarint(buf[:], uint64(nrows))
	n += binary.PutUvarint(buf[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[n:], crc32.Checksum(payload, castagnoli))
	n += crc32.Size
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// BlockReader decodes a block-framed row stream written by BlockWriter.
type BlockReader struct {
	br      *bufio.Reader
	cols    int
	frames  int64
	payload []byte
}

// NewBlockReader validates the stream header and returns a reader. cols
// is the matrix column count rows are validated against.
func NewBlockReader(br *bufio.Reader, cols int) (*BlockReader, error) {
	magic := make([]byte, len(blockMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != blockMagic {
		return nil, fmt.Errorf("%w: bad block-stream magic", ErrFormat)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != blockVersion {
		return nil, fmt.Errorf("%w: unsupported block-stream version", ErrFormat)
	}
	return &BlockReader{br: br, cols: cols}, nil
}

// Frames returns the number of frames fully decoded so far — the index
// of the next frame ReadRowBlock will attempt. The stream replay path
// uses it to skip already-consumed frames when re-reading a bucket
// after a CRC failure.
func (r *BlockReader) Frames() int64 { return r.frames }

// ReadRowBlock decodes the next frame into b (resetting it), returning
// io.EOF at a clean end of stream. The whole payload is read with one
// io.ReadFull and decoded from the contiguous buffer — the fast path
// that replaces one buffered varint read per column.
func (r *BlockReader) ReadRowBlock(b *RowBlock) error {
	nrows, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("%w: truncated frame header: %v", ErrFormat, err)
	}
	plen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("%w: truncated frame header: %v", ErrFormat, err)
	}
	if nrows == 0 || nrows > maxFrameRows {
		return fmt.Errorf("%w: implausible frame row count %d", ErrFormat, nrows)
	}
	if plen == 0 || plen > maxFramePayload {
		return fmt.Errorf("%w: implausible frame payload %d bytes", ErrFormat, plen)
	}
	var crcBuf [crc32.Size]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return fmt.Errorf("%w: truncated frame CRC: %v", ErrFormat, err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	if cap(r.payload) < int(plen) {
		r.payload = make([]byte, plen)
	}
	r.payload = r.payload[:plen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return fmt.Errorf("%w: truncated frame payload: %v", ErrFormat, err)
	}
	if got := crc32.Checksum(r.payload, castagnoli); got != wantCRC {
		return fmt.Errorf("%w: %w: frame %d (got %08x, want %08x)",
			ErrFormat, ErrFrameCRC, r.frames, got, wantCRC)
	}
	if err := decodeFrame(r.payload, int(nrows), r.cols, b); err != nil {
		return err
	}
	r.frames++
	return nil
}

// decodeFrame decodes nrows raw-row records from buf into b, validating
// every varint and the exact payload length.
func decodeFrame(buf []byte, nrows, cols int, b *RowBlock) error {
	b.Reset()
	off := 0
	for i := 0; i < nrows; i++ {
		weight, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("%w: corrupt frame at row %d (weight)", ErrFormat, i)
		}
		off += n
		if weight > uint64(cols) {
			return fmt.Errorf("%w: row weight %d exceeds %d columns", ErrFormat, weight, cols)
		}
		prev := uint64(0)
		for j := 0; j < int(weight); j++ {
			delta, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return fmt.Errorf("%w: corrupt frame at row %d (column %d)", ErrFormat, i, j)
			}
			off += n
			if j > 0 && delta == 0 {
				return fmt.Errorf("%w: zero delta at row %d", ErrFormat, i)
			}
			v := prev + delta
			if v >= uint64(cols) {
				return fmt.Errorf("%w: column %d out of range", ErrFormat, v)
			}
			b.cols = append(b.cols, Col(v))
			prev = v
		}
		b.offs = append(b.offs, int32(len(b.cols)))
	}
	if off != len(buf) {
		return fmt.Errorf("%w: frame payload has %d trailing bytes", ErrFormat, len(buf)-off)
	}
	return nil
}
