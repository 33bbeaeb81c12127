// Package stream mines matrix files directly from disk in the paper's
// true two-pass fashion, with memory bounded by the counter array
// rather than the data size.
//
// The first pass (PartitionWith) streams the file once: it counts
// ones(c) per column and splits the rows into the density buckets of
// §4.1 ([2^i, 2^{i+1}) by row weight), writing each bucket to its own
// temporary spill file in the CRC-checked block codec (DMCF version 2,
// the only spill format). Every later pass replays the buckets
// sparsest-first — which is exactly how the paper realizes row
// re-ordering without sorting. The DMC pipelines then run unchanged on
// top via core.Source.
//
// The replay path is concurrent end to end: a background reader
// goroutine decodes frame k+1 while the miner consumes frame k
// (double-buffered prefetch), and the same reader broadcasts each pass
// once to any number of §7 shard workers through bounded ring channels
// (core.ConcurrentSource), so parallel disk-backed mining reads each
// pass exactly once. Partitioning itself shards decode + bucket
// classification across the same number of goroutines. Config.Workers
// sets that fan-out; frame size, prefetch depth and read buffers are
// fixed.
package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
)

// Spill/pass/prefetch counters on the process-wide registry: the
// serving layer's /v1/metrics endpoint exposes these, which is how
// operators see whether a deployment is spilling to disk, how many
// replay passes the pipelines cost, and whether the miners are
// outrunning the prefetch reader (stalls) or the reader is outrunning
// the miners (queue depth pinned at the ring capacity).
var (
	metricPartitions = obs.Default.Counter("dmc_stream_partitions_total",
		"Completed first-pass partitionings of a matrix file.")
	metricSpilledRows = obs.Default.Counter("dmc_stream_spilled_rows_total",
		"Rows written to density-bucket spill files.")
	metricSpilledBytes = obs.Default.Counter("dmc_stream_spilled_bytes_total",
		"Bytes written to density-bucket spill files.")
	metricSpillBuckets = obs.Default.Counter("dmc_stream_spill_buckets_total",
		"Non-empty density buckets created by partitioning.")
	metricPasses = obs.Default.Counter("dmc_stream_passes_total",
		"Sequential passes replayed over the spill buckets.")
	metricFrames = obs.Default.Counter("dmc_stream_frames_total",
		"Row frames decoded and delivered by streaming replay passes.")
	metricPrefetchStalls = obs.Default.Counter("dmc_stream_prefetch_stalls_total",
		"Times a mining consumer blocked waiting on the prefetch reader.")
	metricBroadcastDepth = obs.Default.Gauge("dmc_stream_broadcast_depth",
		"Decoded row frames currently queued in broadcast ring buffers.")
	metricMinesCancelled = obs.Default.Counter("dmc_mines_cancelled_total",
		"Mining operations aborted by context cancellation or deadline.")
)

// SpillDirPrefix names the temp directories the partitioner creates
// under Config.TmpDir. Exported so a supervising layer (the dataset
// store's scratch sweep) can recognize spill debris left by a killed
// mine.
const SpillDirPrefix = "dmc-stream-"

// Config configures the streaming substrate. The zero value is a
// sensible default everywhere: one worker per CPU, spills under the
// system temp directory.
type Config struct {
	// TmpDir is where spill directories are created ("" = system temp).
	TmpDir string

	// Workers is the §7 shard fan-out for the mining passes and the
	// number of goroutines that split the partitioning pass: 1 runs
	// both serially, ≤ 0 means one worker per CPU.
	Workers int

	// Ctx, when non-nil, cancels the streaming substrate: the partition
	// feeder and the passes of Pass and ConcurrentPass observe it and
	// tear down promptly (no leaked goroutines or spill fds). A core
	// mine starts its passes with its own core.Options.Ctx instead
	// (PassContext); the Mine entry points set that to Ctx when it is
	// unset, so one knob cancels both the I/O and the scan loops.
	Ctx context.Context

	// FS routes every spill-file operation (create, open, rename); nil
	// means the real filesystem. Tests install a fault.Injector here to
	// drive the failure matrix.
	FS fault.FS

	// Retry bounds the transient-failure retry of spill reads and
	// writes (exponential backoff + jitter). The zero value is the
	// fault package default: 3 attempts, 2ms base delay.
	Retry fault.RetryPolicy

	// CheckpointDir, when non-empty, makes the spill persistent and
	// crash-safe instead of a throwaway temp directory: segments are
	// committed via temp-file + fsync + atomic rename, a MANIFEST.json
	// (written the same way, last) records the input identity and
	// segment list, and Close keeps everything on disk. A later run
	// with Resume set picks the partition up without re-reading the
	// input. The identity is the one the input had before the first
	// read; if it differs once the segments are written, no manifest
	// is committed.
	CheckpointDir string

	// Resume, with CheckpointDir set, reuses a valid checkpoint in
	// CheckpointDir when its manifest matches the input file
	// (size+modtime) and every segment is intact; otherwise the
	// partition runs afresh and overwrites the checkpoint.
	Resume bool

	// OnResume, when non-nil, is called once if Resume actually picked
	// up a valid checkpoint instead of partitioning afresh — the signal
	// the job subsystem uses to count and journal resumed sessions.
	OnResume func()

	// frameRows caps the rows of a spill frame and of a partition
	// chunk (≤ 0 = matrix.DefaultBlockRows). Tests lower it so that
	// matrices of a few hundred rows still cross frame boundaries.
	frameRows int
}

// Fixed replay tuning: each consumer's ring holds two decoded frames
// (the reader decodes frame k+1 while frame k is consumed), and each
// spill segment is read through a 256KB buffer.
const (
	prefetchFrames = 2
	readBufBytes   = 256 << 10
)

func (c Config) fs() fault.FS {
	if c.FS != nil {
		return c.FS
	}
	return fault.OS
}

func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// PassError wraps a failure during a streaming pass, locating it when
// known: the density bucket, the spill segment file, and the frame
// index within it (-1 when unknown). It is the panic payload of an
// aborted pass (the core engines have no error channel); the Mine
// entry points return it as an ordinary error.
type PassError struct {
	Bucket  int    // density bucket index, -1 when unknown
	Segment string // spill segment base name, "" when unknown
	Frame   int64  // frame index within the segment, -1 when unknown
	Err     error
}

func (e *PassError) Error() string {
	msg := "stream: pass failed"
	if e.Segment != "" {
		msg += fmt.Sprintf(" (bucket %d, segment %s", e.Bucket, e.Segment)
		if e.Frame >= 0 {
			msg += fmt.Sprintf(", frame %d", e.Frame)
		}
		msg += ")"
	}
	return msg + ": " + e.Err.Error()
}
func (e *PassError) Unwrap() error { return e.Err }

// newPassError wraps err without location info; asPassError avoids
// double-wrapping errors the replay path already located.
func newPassError(err error) *PassError { return &PassError{Bucket: -1, Frame: -1, Err: err} }

func asPassError(err error) *PassError {
	var pe *PassError
	if errors.As(err, &pe) {
		return pe
	}
	return newPassError(err)
}

// SpillError wraps a failure while writing a spill segment during
// partitioning, naming the density bucket and file.
type SpillError struct {
	Bucket int
	Path   string
	Err    error
}

func (e *SpillError) Error() string {
	return fmt.Sprintf("stream: spill bucket %d (%s): %v", e.Bucket, filepath.Base(e.Path), e.Err)
}
func (e *SpillError) Unwrap() error { return e.Err }

// SourceError marks PassError as the core.SourceError pass-abort
// protocol, so the parallel source pipelines recover it per worker.
func (e *PassError) SourceError() {}

// NumCols returns the column count.
func (p *Partitioned) NumCols() int { return p.cols }

// NumRows returns the row count.
func (p *Partitioned) NumRows() int { return p.rows }

// Ones returns the per-column 1-counts from the first pass. The slice
// is owned by p; callers must not modify it.
func (p *Partitioned) Ones() []int { return p.ones }

// Close cancels any in-flight passes, waits for their readers to
// release the spill file handles, and removes the spill directory —
// unless the partition is a checkpoint (CheckpointDir), which stays on
// disk for a later Resume.
func (p *Partitioned) Close() error {
	p.mu.Lock()
	p.closed = true
	readers := make([]*passReader, 0, len(p.readers))
	for r := range p.readers {
		readers = append(readers, r)
	}
	p.mu.Unlock()
	for _, r := range readers {
		r.cancel()
	}
	for _, r := range readers {
		<-r.done
	}
	if p.keep {
		return nil
	}
	return os.RemoveAll(p.dir)
}

// MineImplicationsCfg mines implication rules straight from a matrix
// file: one partitioning pass, then the DMC-imp pipeline streaming the
// buckets from disk (one extra pass per pipeline phase). Memory is
// bounded by the counter array and the per-column count slices. cfg
// sets the worker fan-out (each pass is read once and broadcast to all
// shards), cancellation, fault injection, and checkpoint/resume.
func MineImplicationsCfg(path string, minconf core.Threshold, opts core.Options, cfg Config) ([]rules.Implication, core.Stats, error) {
	if opts.Ctx == nil {
		opts.Ctx = cfg.Ctx
	}
	p, err := PartitionWith(path, cfg)
	if err != nil {
		return nil, core.Stats{}, noteCancelled(err)
	}
	defer p.Close()
	out, st, err := core.DMCImpParallelSource(p, p.Ones(), minconf, opts, cfg.Workers)
	return out, st, noteCancelled(err)
}

// noteCancelled counts a cancellation/deadline abort on
// dmc_mines_cancelled_total, passing the error through.
func noteCancelled(err error) error {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		metricMinesCancelled.Inc()
	}
	return err
}

// MineSimilaritiesCfg is MineImplicationsCfg for similarity rules.
func MineSimilaritiesCfg(path string, minsim core.Threshold, opts core.Options, cfg Config) ([]rules.Similarity, core.Stats, error) {
	if opts.Ctx == nil {
		opts.Ctx = cfg.Ctx
	}
	p, err := PartitionWith(path, cfg)
	if err != nil {
		return nil, core.Stats{}, noteCancelled(err)
	}
	defer p.Close()
	out, st, err := core.DMCSimParallelSource(p, p.Ones(), minsim, opts, cfg.Workers)
	return out, st, noteCancelled(err)
}

// MineResident is the bottom rung of every resident mine. It runs
// resident, the in-memory mine of m. When that overflows its memory
// budget (a *core.BudgetError), it saves m under dir ("" = the OS temp
// dir) and re-mines the saved file out of core with file, which is the
// paper's answer to counters that outgrow memory (§4.1): the
// density-bucket replay puts the dense rows last, where the DMC-bitmap
// endgame absorbs them. The rule set is the same either way, and the
// saved file is removed before MineResident returns. A nil resident
// goes out of core at once. If the save fails, the budget error stays
// in the returned chain beside the save error.
func MineResident[R any](m *matrix.Matrix, dir string, resident func() ([]R, core.Stats, error), file func(path string) ([]R, core.Stats, error)) ([]R, core.Stats, error) {
	var overflow error
	if resident != nil {
		rs, st, err := resident()
		var be *core.BudgetError
		if !errors.As(err, &be) {
			return rs, st, err
		}
		overflow = err
	}
	tmp, err := os.MkdirTemp(dir, "dmc-degrade-")
	if err != nil {
		return nil, core.Stats{}, errors.Join(overflow, err)
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "resident"+matrix.ExtBinary)
	if err := matrix.Save(path, m); err != nil {
		return nil, core.Stats{}, errors.Join(overflow, err)
	}
	return file(path)
}
