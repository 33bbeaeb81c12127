package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
)

// Partitioned is the result of the first pass: per-column counts plus
// the on-disk density buckets. It implements core.ContextSource;
// each Pass replays all rows sparsest-bucket-first through a
// prefetching background reader, and ConcurrentPass and PassContext
// broadcast one replay to several shard workers. Close cancels
// in-flight passes and removes the spill files.
type Partitioned struct {
	dir     string
	cols    int
	rows    int
	ones    []int
	buckets []bucket // ascending density; parallel partitioning may
	// write several segments per density bucket (one per partition
	// worker), kept adjacent so replay order stays bucket-monotone
	bytes int64 // spill segment bytes
	cfg   Config

	keep bool // checkpoint mode: Close leaves the spill on disk

	mu      sync.Mutex
	readers map[*passReader]struct{} // in-flight pass readers
	closed  bool
	openFDs atomic.Int64 // spill file handles currently open (leak guard)
}

// bucket is one spill segment: a run of rows of a single density
// bucket.
type bucket struct {
	bkt  int
	path string
	rows int
}

func (c Config) blockRows() int {
	if c.frameRows > 0 {
		return c.frameRows
	}
	return matrix.DefaultBlockRows
}

// PartitionWith streams the matrix file at path once, producing the
// counts and the bucket spill files under a fresh directory inside
// cfg.TmpDir (or in cfg.CheckpointDir). cfg.Workers goroutines split
// decode + bucket classification + spill encoding, each writing its own
// per-bucket segment files, with the per-column ones counts merged at
// the end.
func PartitionWith(path string, cfg Config) (*Partitioned, error) {
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" && cfg.Resume {
		if p, err := tryResume(path, cfg); err == nil {
			if cfg.OnResume != nil {
				cfg.OnResume()
			}
			return p, nil
		}
		// An invalid or missing checkpoint is not an error: fall
		// through and partition afresh, overwriting it.
	}
	// The checkpoint names the input as it was before the first read.
	id, err := Identify(path)
	if err != nil {
		return nil, err
	}
	rr, closer, err := matrix.OpenRowReader(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()

	var dir string
	keep := false
	if cfg.CheckpointDir != "" {
		// Checkpoint mode: a stable directory, stale tmp files and any
		// previous manifest cleared first, so a crash mid-partition can
		// never leave a manifest describing half-written segments.
		dir = cfg.CheckpointDir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := clearCheckpoint(dir); err != nil {
			return nil, err
		}
		keep = true
	} else {
		dir, err = os.MkdirTemp(cfg.TmpDir, SpillDirPrefix)
		if err != nil {
			return nil, err
		}
	}
	p := &Partitioned{
		dir:     dir,
		cols:    rr.NumCols(),
		rows:    rr.NumRows(),
		ones:    make([]int, rr.NumCols()),
		cfg:     cfg,
		keep:    keep,
		readers: make(map[*passReader]struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			p.Close()
		}
	}()

	nb := matrix.NumBuckets(rr.NumCols())
	var segs []bucket
	var spilledBytes int64
	if w := core.ResolveWorkers(cfg.Workers); w <= 1 {
		segs, spilledBytes, err = partitionSerial(rr, dir, nb, cfg, p.ones)
	} else {
		segs, spilledBytes, err = partitionParallel(rr, dir, nb, w, cfg, p.ones)
	}
	if err != nil {
		return nil, err
	}
	p.buckets = segs
	p.bytes = spilledBytes

	distinct := 0
	last := -1
	for _, s := range segs {
		if s.bkt != last {
			distinct++
			last = s.bkt
		}
	}
	metricPartitions.Inc()
	metricSpilledRows.Add(int64(p.rows))
	metricSpilledBytes.Add(spilledBytes)
	metricSpillBuckets.Add(int64(distinct))
	if keep {
		// An input replaced or rewritten while it was read leaves
		// segments this run may replay but no manifest a resume would
		// trust.
		if now, err := Identify(path); err == nil && id.Same(now) {
			if err := writeManifest(path, id, p); err != nil {
				return nil, err
			}
		}
	}
	ok = true
	return p, nil
}

// Bytes is the size of the partition's spill segments on disk.
func (p *Partitioned) Bytes() int64 { return p.bytes }

func partitionSerial(rr matrix.RowReader, dir string, nb int, cfg Config, ones []int) ([]bucket, int64, error) {
	ss := newSpillSet(dir, "", nb, cfg)
	for i := 0; ; i++ {
		if i&511 == 0 {
			if err := cfg.ctxErr(); err != nil {
				ss.closeAll()
				return nil, 0, err
			}
		}
		row, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			ss.closeAll()
			return nil, 0, err
		}
		for _, c := range row {
			ones[c]++
		}
		if err := ss.write(matrix.BucketIndex(len(row)), row); err != nil {
			ss.closeAll()
			return nil, 0, err
		}
	}
	return ss.finish()
}

// partChunk is one unit of partition work: either decoded rows (binary
// input, decoded by the feeder) or raw text lines (text input, parsed
// by the workers — for text the parse is the expensive part, so it is
// what gets sharded).
type partChunk struct {
	blk   *matrix.RowBlock
	lines []string
}

func partitionParallel(rr matrix.RowReader, dir string, nb, w int, cfg Config, ones []int) ([]bucket, int64, error) {
	chunks := make(chan partChunk, 2*w)
	pool := sync.Pool{New: func() any { return new(matrix.RowBlock) }}
	cols := rr.NumCols()

	type partWorker struct {
		ss   *spillSet
		ones []int
		err  error
	}
	workers := make([]*partWorker, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		pw := &partWorker{
			ss:   newSpillSet(dir, fmt.Sprintf("-w%02d", i), nb, cfg),
			ones: make([]int, cols),
		}
		workers[i] = pw
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle := func(row []matrix.Col) error {
				for _, c := range row {
					pw.ones[c]++
				}
				return pw.ss.write(matrix.BucketIndex(len(row)), row)
			}
			for ch := range chunks { // drain even after an error so the feeder never blocks
				if pw.err == nil {
					if ch.lines != nil {
						for _, ln := range ch.lines {
							row, err := matrix.ParseTextRow(ln, cols)
							if err == nil {
								err = handle(row)
							}
							if err != nil {
								pw.err = err
								break
							}
						}
					} else {
						for i := 0; i < ch.blk.Len(); i++ {
							if err := handle(ch.blk.Row(i)); err != nil {
								pw.err = err
								break
							}
						}
					}
				}
				if ch.blk != nil {
					pool.Put(ch.blk)
				}
			}
		}()
	}

	chunkRows := cfg.blockRows()
	var feedErr error
	if trr, ok := rr.(*matrix.TextRowReader); ok {
		for feedErr == nil {
			if feedErr = cfg.ctxErr(); feedErr != nil {
				break
			}
			lines := make([]string, 0, chunkRows)
			for len(lines) < chunkRows {
				ln, err := trr.NextLine()
				if err == io.EOF {
					feedErr = io.EOF
					break
				}
				if err != nil {
					feedErr = err
					break
				}
				lines = append(lines, ln)
			}
			if len(lines) > 0 {
				chunks <- partChunk{lines: lines}
			}
		}
	} else {
		for feedErr == nil {
			if feedErr = cfg.ctxErr(); feedErr != nil {
				break
			}
			blk := pool.Get().(*matrix.RowBlock)
			blk.Reset()
			for blk.Len() < chunkRows {
				row, err := rr.Next()
				if err == io.EOF {
					feedErr = io.EOF
					break
				}
				if err != nil {
					feedErr = err
					break
				}
				blk.Append(row)
			}
			if blk.Len() > 0 {
				chunks <- partChunk{blk: blk}
			} else {
				pool.Put(blk)
			}
		}
	}
	close(chunks)
	wg.Wait()
	if feedErr == io.EOF {
		feedErr = nil
	}
	for _, pw := range workers {
		if feedErr == nil && pw.err != nil {
			feedErr = pw.err
		}
	}
	if feedErr != nil {
		for _, pw := range workers {
			pw.ss.closeAll()
		}
		return nil, 0, feedErr
	}

	// Merge: sum the per-worker ones counts and interleave the spill
	// segments bucket-major (worker-minor), so a replay still visits
	// densities in non-decreasing order.
	perWorker := make([]map[int]bucket, w)
	var spilledBytes int64
	for i, pw := range workers {
		for c, n := range pw.ones {
			ones[c] += n
		}
		segs, bytes, err := pw.ss.finish()
		if err != nil {
			for _, rest := range workers[i+1:] {
				rest.ss.closeAll()
			}
			return nil, 0, err
		}
		spilledBytes += bytes
		perWorker[i] = make(map[int]bucket, len(segs))
		for _, s := range segs {
			perWorker[i][s.bkt] = s
		}
	}
	var segs []bucket
	for b := 0; b < nb; b++ {
		for i := 0; i < w; i++ {
			if s, ok := perWorker[i][b]; ok {
				segs = append(segs, s)
			}
		}
	}
	return segs, spilledBytes, nil
}

// spillSet is one writer's set of per-bucket spill files, created
// lazily on the first row of each bucket. Every file is written to a
// ".tmp" name and committed by finish with an atomic rename (after an
// fsync in checkpoint mode), so a crash mid-partition never leaves a
// final-named segment with torn contents. Writes go through the
// fault-aware retry writer, so a transient blip costs a backoff, not
// the partition.
type spillSet struct {
	dir    string
	suffix string
	cfg    Config
	sync   bool // fsync before rename (checkpoint durability)
	files  []fault.File
	finals []string // committed path per open file
	blks   []*matrix.BlockWriter
	rows   []int
}

func newSpillSet(dir, suffix string, nb int, cfg Config) *spillSet {
	return &spillSet{
		dir:    dir,
		suffix: suffix,
		cfg:    cfg,
		sync:   cfg.CheckpointDir != "",
		files:  make([]fault.File, nb),
		finals: make([]string, nb),
		blks:   make([]*matrix.BlockWriter, nb),
		rows:   make([]int, nb),
	}
}

func (s *spillSet) write(b int, row []matrix.Col) error {
	if s.files[b] == nil {
		final := filepath.Join(s.dir, fmt.Sprintf("bucket-%02d%s.rows", b, s.suffix))
		f, err := s.cfg.fs().Create(final + ".tmp")
		if err != nil {
			return &SpillError{Bucket: b, Path: final, Err: err}
		}
		s.files[b] = f
		s.finals[b] = final
		w := bufio.NewWriterSize(fault.NewRetryWriter(s.cfg.Ctx, f, s.cfg.Retry), 1<<16)
		bw, err := matrix.NewBlockWriter(w, s.cfg.blockRows(), matrix.DefaultBlockBytes)
		if err != nil {
			return &SpillError{Bucket: b, Path: final, Err: err}
		}
		s.blks[b] = bw
	}
	s.rows[b]++
	if err := s.blks[b].WriteRow(row); err != nil {
		return &SpillError{Bucket: b, Path: s.finals[b], Err: err}
	}
	return nil
}

// finish flushes, optionally fsyncs, closes and atomically renames
// every segment into place, returning the non-empty segments in bucket
// order plus the total bytes spilled.
func (s *spillSet) finish() ([]bucket, int64, error) {
	var segs []bucket
	var bytes int64
	for b, f := range s.files {
		if f == nil {
			continue
		}
		final := s.finals[b]
		err := s.blks[b].Flush() // flushes the bufio.Writer too
		if err == nil && s.sync {
			err = f.Sync()
		}
		if err != nil {
			s.closeFrom(b)
			return nil, 0, &SpillError{Bucket: b, Path: final, Err: err}
		}
		if fi, err := f.Stat(); err == nil {
			bytes += fi.Size()
		}
		if err := f.Close(); err != nil {
			s.closeFrom(b + 1)
			return nil, 0, &SpillError{Bucket: b, Path: final, Err: err}
		}
		s.files[b] = nil
		if err := s.cfg.fs().Rename(final+".tmp", final); err != nil {
			s.closeFrom(b + 1)
			return nil, 0, &SpillError{Bucket: b, Path: final, Err: err}
		}
		segs = append(segs, bucket{bkt: b, path: final, rows: s.rows[b]})
	}
	return segs, bytes, nil
}

// closeAll closes every still-open file without flushing — the error
// path, where the spill directory (or the stale-tmp sweep of the next
// checkpoint run) cleans up the bytes. The point is not leaking the
// descriptors.
func (s *spillSet) closeAll() { s.closeFrom(0) }

func (s *spillSet) closeFrom(b int) {
	for ; b < len(s.files); b++ {
		if s.files[b] != nil {
			s.files[b].Close()
			os.Remove(s.finals[b] + ".tmp")
			s.files[b] = nil
		}
	}
}
