// Package fleet shards one mine across N dmcserve worker nodes and
// merges the results byte-identically to a single-node mine.
//
// The decomposition is the paper's §7 column partition lifted over the
// network: every worker scans its full local replica of the dataset
// but owns only a contiguous column range (core.ShardRange), so it
// emits exactly the rules whose antecedent (implications) or
// rank-lesser member (similarities) falls in its range. Disjoint
// covering ranges partition the rule set, so the scatter-gather merge
// is a lossless concatenation followed by the canonical sort — no
// dedup, no reconciliation.
//
// The layer has three parts:
//
//   - Registry: the node table, with per-node health/capacity probes
//     over pooled HTTP connections. A node that fails a probe (or a
//     shard attempt) is marked down and skipped until a probe brings
//     it back.
//   - Plan: the shard planner, splitting the column space into
//     contiguous ranges weighted by per-column 1-counts — estimated
//     work, not naive equal widths.
//   - Coordinator: scatter-gather with retry. Each shard is shipped as
//     a (dataset hash, column range, params) Task; a worker that does
//     not hold the dataset (or holds different bytes — the hash is the
//     identity) gets the replica pushed and the task retried; a node
//     that dies mid-pass has its shard requeued to the next healthy
//     node, bounded by MaxAttempts.
//
// Everything is observable as dmc_fleet_* metrics on internal/obs.
package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dmc/internal/matrix"
)

// Worker endpoints, mounted by the serving layer when it runs with
// -fleet-worker. The coordinator side only ever talks to these three.
const (
	// InfoPath is the health/capacity probe: GET returns an Info.
	InfoPath = "/v1/fleet/info"
	// ShardPath runs one shard task: POST with a Task body returns the
	// owned rules in the dmcrules text format (raw column ids — labels
	// are resolved by the coordinator, which holds the full dataset).
	ShardPath = "/v1/fleet/shard"
	// DatasetsPath + name receives a dataset replica: PUT with an
	// EncodeDataset body registers the matrix (and its labels, which
	// are part of the content address) under the name.
	DatasetsPath = "/v1/fleet/datasets/"
)

// PayloadCRCHeader carries the CRC-32C (Castagnoli, hex) of a shard
// response body. Workers set it on every shard payload; the
// coordinator verifies it when present, so a payload corrupted or
// truncated in flight is retried instead of silently merged — the
// network twin of the spill codec's per-frame CRC.
const PayloadCRCHeader = "X-Dmc-Payload-Crc32c"

var payloadCRCTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadCRC computes the PayloadCRCHeader value for a payload.
func PayloadCRC(b []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(b, payloadCRCTable))
}

// Task is the unit of scatter: one column shard of one mine, addressed
// to a worker's replica of the dataset. Hash is the content address
// the replica must match — a worker holding different bytes under the
// same name answers 409 and the coordinator pushes the right ones.
type Task struct {
	Dataset    string `json:"dataset"`
	Hash       string `json:"hash"`
	Mode       string `json:"mode"` // "imp" or "sim"
	Threshold  int    `json:"threshold_percent"`
	MinSupport int    `json:"minsupport"`
	ColLo      int    `json:"col_lo"`
	ColHi      int    `json:"col_hi"`
	Workers    int    `json:"workers,omitempty"` // per-node pipeline fan-out; 0 = one per CPU
}

// Validate checks the parts of a Task that do not need the dataset.
func (t Task) Validate() error {
	if t.Dataset == "" {
		return fmt.Errorf("fleet: task has no dataset")
	}
	if t.Mode != "imp" && t.Mode != "sim" {
		return fmt.Errorf("fleet: bad task mode %q (want imp or sim)", t.Mode)
	}
	if t.Threshold < 1 || t.Threshold > 100 {
		return fmt.Errorf("fleet: task threshold %d outside [1,100]", t.Threshold)
	}
	if t.MinSupport < 0 {
		return fmt.Errorf("fleet: task minsupport %d negative", t.MinSupport)
	}
	if t.ColLo < 0 || t.ColHi <= t.ColLo {
		return fmt.Errorf("fleet: task column range [%d,%d) empty", t.ColLo, t.ColHi)
	}
	return nil
}

// Info is a worker's probe response: whether it would accept a shard
// right now, and how much it can chew.
type Info struct {
	Status   string `json:"status"` // "ready", "loading" or "draining"
	CPUs     int    `json:"cpus"`
	Datasets int    `json:"datasets"`
}

// EncodeDataset frames a resident matrix for a replica push: the
// binary matrix length as a uvarint, the binary matrix, then the label
// file bytes (possibly empty). Labels ride along because they are part
// of the content address — a replica without them would never hash
// equal to the original.
func EncodeDataset(m *matrix.Matrix) ([]byte, error) {
	bin, err := matrix.EncodeBinary(m)
	if err != nil {
		return nil, err
	}
	var labels []byte
	if m.Labels() != nil {
		if labels, err = matrix.EncodeLabels(m.Labels()); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	var lenbuf [binary.MaxVarintLen64]byte
	buf.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(bin)))])
	buf.Write(bin)
	buf.Write(labels)
	return buf.Bytes(), nil
}

// DecodeDataset parses an EncodeDataset frame back into a matrix.
func DecodeDataset(r io.Reader) (*matrix.Matrix, error) {
	br := newByteReader(r)
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("fleet: dataset frame: %w", err)
	}
	m, err := matrix.ReadBinary(io.LimitReader(br, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("fleet: dataset frame: %w", err)
	}
	labels, err := matrix.ReadLabels(br)
	if err != nil {
		return nil, fmt.Errorf("fleet: dataset frame labels: %w", err)
	}
	if len(labels) > 0 {
		m.SetLabels(labels)
	}
	return m, nil
}

// byteReader adapts any reader for binary.ReadUvarint without
// over-buffering past the varint (the matrix bytes must stay in r).
type byteReader struct{ r io.Reader }

func newByteReader(r io.Reader) *byteReader { return &byteReader{r} }

func (b *byteReader) ReadByte() (byte, error) {
	var p [1]byte
	if _, err := io.ReadFull(b.r, p[:]); err != nil {
		return 0, err
	}
	return p[0], nil
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }
