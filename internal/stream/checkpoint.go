package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dmc/internal/obs"
)

// Checkpointing makes the spill a durable artifact instead of a
// throwaway temp directory, which is what turns a SIGKILL mid-mine into
// a fast restart: the expensive first pass (decode + bucket + spill) is
// persisted, and every mining pass is a deterministic replay of the
// spill, so `-resume` reproduces the exact rule set of an uninterrupted
// run.
//
// The crash-safety protocol is write-ahead-free and purely ordering
// based:
//  1. every segment is written to "<name>.tmp", fsynced, then renamed
//     into place (rename is atomic on POSIX);
//  2. MANIFEST.json — the only thing resume trusts — is written the
//     same way, strictly after every segment it names is committed;
//  3. a fresh partition into the same directory deletes the manifest
//     first, then sweeps stale *.tmp and the previous partition's
//     segments, so a crash at any point leaves either a complete,
//     trusted checkpoint or no manifest at all, and a re-partition
//     leaves no dead segments behind.

const manifestName = "MANIFEST.json"

// manifestVersion gates the resume format; bump on incompatible change.
// Version 1 manifests could name unframed segments; they are refused,
// so such a checkpoint is re-partitioned rather than trusted.
const manifestVersion = 2

var metricCheckpointWrites = obs.Default.Counter("dmc_checkpoint_writes_total",
	"Checkpoint manifests committed (segment set durably on disk).")

type manifest struct {
	Version int `json:"version"`

	// Input identity: a checkpoint is only valid for the exact file it
	// was partitioned from.
	Input        string `json:"input"`
	InputSize    int64  `json:"input_size"`
	InputModTime int64  `json:"input_modtime_unixnano"`

	Cols     int           `json:"cols"`
	Rows     int           `json:"rows"`
	Ones     []int         `json:"ones"`
	Segments []manifestSeg `json:"segments"`
}

type manifestSeg struct {
	Bucket int    `json:"bucket"`
	File   string `json:"file"` // relative to the checkpoint dir
	Rows   int    `json:"rows"`
	Size   int64  `json:"size"`
}

// clearCheckpoint invalidates any previous checkpoint in dir before a
// fresh partition writes into it: the manifest goes first (nothing
// trusts the directory afterwards), then stale *.tmp from a crashed
// writer and the previous partition's segments are swept. A segment
// set written at another worker count has other file names, so without
// the sweep it would sit next to the new one as dead bytes.
func clearCheckpoint(dir string) error {
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, pattern := range []string{"*.tmp", "bucket-*.rows"} {
		stale, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, f := range stale {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// Identity is what is known of an input file without reading it: the
// file (device and inode), its size and its modification time. A
// partition is only as current as the identity its input had before
// the partition read it, so a checkpoint, and a server's kept
// partition, capture it first and compare it again later.
type Identity struct {
	fi os.FileInfo
}

// Identify stats the file at path.
func Identify(path string) (Identity, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Identity{}, err
	}
	return Identity{fi}, nil
}

// Same reports whether a and b are the same file at the same size and
// modification time. A rewrite that keeps all three (same size, same
// timestamp tick) is invisible to it; callers that reuse a partition
// guard against that by the age of ModTime.
func (a Identity) Same(b Identity) bool {
	return a.fi != nil && b.fi != nil && os.SameFile(a.fi, b.fi) &&
		a.fi.Size() == b.fi.Size() && a.fi.ModTime().Equal(b.fi.ModTime())
}

// Size is the file's size in bytes.
func (a Identity) Size() int64 { return a.fi.Size() }

// ModTime is the file's modification time.
func (a Identity) ModTime() time.Time { return a.fi.ModTime() }

// writeManifest commits the checkpoint: it records the input identity
// id, captured before the partition read the input, and the committed
// segment list, via the same tmp+fsync+rename dance as the segments,
// strictly after all of them. Runs through cfg.fs() so the fault matrix
// can kill the commit itself.
func writeManifest(input string, id Identity, p *Partitioned) error {
	abs, err := filepath.Abs(input)
	if err != nil {
		abs = input
	}
	m := manifest{
		Version:      manifestVersion,
		Input:        abs,
		InputSize:    id.Size(),
		InputModTime: id.ModTime().UnixNano(),
		Cols:         p.cols,
		Rows:         p.rows,
		Ones:         p.ones,
	}
	for _, b := range p.buckets {
		sfi, err := os.Stat(b.path)
		if err != nil {
			return fmt.Errorf("stream: checkpoint: stat segment: %w", err)
		}
		m.Segments = append(m.Segments, manifestSeg{
			Bucket: b.bkt,
			File:   filepath.Base(b.path),
			Rows:   b.rows,
			Size:   sfi.Size(),
		})
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	final := filepath.Join(p.dir, manifestName)
	f, err := p.cfg.fs().Create(final + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := p.cfg.fs().Rename(final+".tmp", final); err != nil {
		return err
	}
	metricCheckpointWrites.Inc()
	return nil
}

// tryResume loads a checkpoint from cfg.CheckpointDir if its manifest
// exists, matches the input file byte-for-byte by proxy (size +
// modtime), and every segment it names is present at the recorded
// size. Any mismatch returns an error and the caller partitions
// afresh — resume is an optimization, never a correctness risk.
func tryResume(input string, cfg Config) (*Partitioned, error) {
	data, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: bad manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("stream: checkpoint: manifest version %d, want %d", m.Version, manifestVersion)
	}
	fi, err := os.Stat(input)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(input)
	if err != nil {
		abs = input
	}
	if m.Input != abs || m.InputSize != fi.Size() || m.InputModTime != fi.ModTime().UnixNano() {
		return nil, fmt.Errorf("stream: checkpoint: input changed since checkpoint (%s)", m.Input)
	}
	if len(m.Ones) != m.Cols {
		return nil, fmt.Errorf("stream: checkpoint: manifest has %d ones for %d cols", len(m.Ones), m.Cols)
	}
	p := &Partitioned{
		dir:     cfg.CheckpointDir,
		cols:    m.Cols,
		rows:    m.Rows,
		ones:    m.Ones,
		cfg:     cfg,
		keep:    true,
		readers: make(map[*passReader]struct{}),
	}
	rowSum := 0
	for _, s := range m.Segments {
		path := filepath.Join(cfg.CheckpointDir, s.File)
		sfi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint: segment missing: %w", err)
		}
		if sfi.Size() != s.Size {
			return nil, fmt.Errorf("stream: checkpoint: segment %s is %d bytes, manifest says %d",
				s.File, sfi.Size(), s.Size)
		}
		p.buckets = append(p.buckets, bucket{bkt: s.Bucket, path: path, rows: s.Rows})
		p.bytes += s.Size
		rowSum += s.Rows
	}
	if rowSum != m.Rows {
		return nil, fmt.Errorf("stream: checkpoint: segments hold %d rows, manifest says %d", rowSum, m.Rows)
	}
	return p, nil
}
