package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
)

// This file is the replay engine: one background reader goroutine per
// pass opens the spill segments in density order, decodes them a frame
// at a time, and broadcasts the decoded blocks to every consumer view
// through a bounded ring channel. With one view that is the
// double-buffered prefetch path (the reader decodes frame k+1 while the
// miner consumes frame k); with n views it is the single-reader
// broadcast that lets n §7 shard workers share one disk read per pass.
//
// Lifecycle rules that keep this deadlock- and leak-free:
//   - the reader is the only sender and the only goroutine touching the
//     spill files; it closes every view channel exactly once on exit
//     (after storing its error), so consumers never block forever;
//   - every send selects on the view's done channel and the reader's
//     stop channel, so an abandoned view (a worker that switched to a
//     shared DMC-bitmap tail mid-pass) or Partitioned.Close never
//     wedges the reader;
//   - blocks are refcounted across views and recycled through a pool;
//     a block is never pooled while a consumer may still hold one of
//     its row slices (the final row of a pass stays un-pooled).

var errPassClosed = errors.New("partition closed mid-pass")

// Pass starts a fresh prefetching pass over all rows, sparsest bucket
// first, under the partition's Config.Ctx. An I/O error mid-pass panics
// with a *PassError (the core engines have no error channel), which the
// Mine entry points recover into an ordinary error.
func (p *Partitioned) Pass() core.Rows { return p.ConcurrentPass(1)[0] }

// ConcurrentPass implements core.ConcurrentSource: PassContext under
// the partition's Config.Ctx.
func (p *Partitioned) ConcurrentPass(n int) []core.Rows { return p.PassContext(p.cfg.Ctx, n) }

// PassContext implements core.ContextSource: one disk read of the pass,
// broadcast to n independently-consumable views, which ctx (nil = none)
// cancels and whose retries it bounds. Each view obeys the sequential
// core.Rows contract on its own goroutine. The reader stops once every
// view is released, so mines that share the partition each end their
// own passes and no other mine's.
func (p *Partitioned) PassContext(ctx context.Context, n int) []core.Rows {
	if n < 1 {
		n = 1
	}
	metricPasses.Inc()
	r := &passReader{p: p, ctx: ctx, stop: make(chan struct{}), done: make(chan struct{})}
	r.pool.New = func() any { return new(matrix.RowBlock) }
	rows := make([]core.Rows, n)
	r.views = make([]*view, n)
	for i := range rows {
		v := &view{r: r, total: p.rows, ch: make(chan *sharedBlock, prefetchFrames), done: make(chan struct{})}
		r.views[i] = v
		rows[i] = v
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		r.err = errPassClosed
		for _, v := range r.views {
			close(v.ch)
		}
		close(r.done)
		return rows
	}
	p.readers[r] = struct{}{}
	p.mu.Unlock()
	go r.run()
	if ctx != nil {
		// Context watcher: a cancelled mine cancels the pass with the
		// context's own error, so consumers see context.Canceled (not a
		// generic closed-pass error) and the reader tears down promptly.
		go func() {
			select {
			case <-ctx.Done():
				r.cancelWith(ctx.Err())
			case <-r.done:
			}
		}()
	}
	return rows
}

// sharedBlock is one decoded frame with a reference per view it was
// (or will be) delivered to; the last release returns it to the pool.
type sharedBlock struct {
	blk  *matrix.RowBlock
	refs atomic.Int32
}

func (sb *sharedBlock) release(pool *sync.Pool) {
	if sb.refs.Add(-1) == 0 {
		pool.Put(sb.blk)
	}
}

// passReader owns one pass: the spill file handles, the decode loop,
// and the fan-out.
type passReader struct {
	p        *Partitioned
	ctx      context.Context // the mine's; nil = never cancelled
	views    []*view
	pool     sync.Pool // *matrix.RowBlock
	stop     chan struct{}
	stopOnce sync.Once
	cause    error         // why the pass was cancelled; set before stop closes
	done     chan struct{} // closed when the goroutine has exited
	err      error         // set before the view channels close
}

func (r *passReader) cancel() { r.cancelWith(errPassClosed) }

// cancelWith stops the pass, recording why. The first caller wins; the
// cause is published before stop closes, so any goroutine that observed
// <-r.stop reads it race-free via causeErr.
func (r *passReader) cancelWith(err error) {
	r.stopOnce.Do(func() {
		r.cause = err
		close(r.stop)
	})
}

func (r *passReader) causeErr() error {
	if r.cause != nil {
		return r.cause
	}
	return errPassClosed
}

func (r *passReader) run() {
	delivered, err := r.readBuckets()
	if err == nil && delivered != r.p.rows {
		err = fmt.Errorf("pass delivered %d of %d rows", delivered, r.p.rows)
	}
	r.err = err
	for _, v := range r.views {
		close(v.ch)
	}
	// Recover queued blocks of views that were released before
	// consuming them, so the depth gauge converges back.
	for _, v := range r.views {
		select {
		case <-v.done:
			for sb := range v.ch {
				metricBroadcastDepth.Dec()
				sb.release(&r.pool)
			}
		default:
		}
	}
	r.p.mu.Lock()
	delete(r.p.readers, r)
	r.p.mu.Unlock()
	close(r.done)
}

func (r *passReader) readBuckets() (int, error) {
	delivered := 0
	for _, b := range r.p.buckets {
		select {
		case <-r.stop:
			return delivered, r.causeErr()
		default:
		}
		n, err := r.readBucket(b)
		delivered += n
		if err != nil {
			return delivered, err
		}
	}
	return delivered, nil
}

// readBucket streams one spill segment to the views, surviving two
// failure classes: transient byte-level I/O (retried inside
// fault.RetryReader, byte-identical re-issue via ReadAt) and detected
// frame corruption (a frame CRC mismatch). The latter gets a bounded
// whole-segment re-read that decodes-and-discards the frames already
// delivered — consumers never see a duplicate, reordered, or corrupt
// row; if the corruption persists the typed error names the bucket,
// segment, and frame.
func (r *passReader) readBucket(b bucket) (int, error) {
	attempts := r.p.cfg.Retry.Attempts()
	delivered := 0
	var skip int64 // frames verified and delivered by earlier attempts
	for attempt := 1; ; attempt++ {
		n, frames, err := r.readSegment(b, skip)
		delivered += n
		skip += frames
		if err == nil {
			if attempt > 1 {
				fault.RecordRetry("recovered")
			}
			return delivered, nil
		}
		if !errors.Is(err, matrix.ErrFrameCRC) || attempt >= attempts {
			if errors.Is(err, matrix.ErrFrameCRC) {
				fault.RecordRetry("exhausted")
			}
			return delivered, err
		}
		fault.RecordRetry("retried")
		if serr := r.p.cfg.Retry.Sleep(r.ctx, attempt); serr != nil {
			return delivered, serr
		}
	}
}

// readSegment is one attempt over a segment: open, skip the first
// `skip` frames (re-verifying their CRCs as it decodes past them),
// then deliver the rest. Returns the rows and frames delivered by this
// attempt. I/O and decode errors come back located as *PassError;
// cancellation comes back as the bare cancel cause.
func (r *passReader) readSegment(b bucket, skip int64) (int, int64, error) {
	f, err := r.p.cfg.fs().Open(b.path)
	if err != nil {
		return 0, 0, r.locate(b, -1, err)
	}
	r.p.openFDs.Add(1)
	defer func() {
		f.Close()
		r.p.openFDs.Add(-1)
	}()
	br := bufio.NewReaderSize(fault.NewRetryReader(r.ctx, f, r.p.cfg.Retry), readBufBytes)
	brd, err := matrix.NewBlockReader(br, r.p.cols)
	if err != nil {
		return 0, 0, r.locate(b, -1, err)
	}
	if skip > 0 {
		scratch := r.pool.Get().(*matrix.RowBlock)
		for i := int64(0); i < skip; i++ {
			if err := brd.ReadRowBlock(scratch); err != nil {
				r.pool.Put(scratch)
				return 0, 0, r.locate(b, brd.Frames(), err)
			}
		}
		r.pool.Put(scratch)
	}
	delivered := 0
	var frames int64
	for {
		blk := r.pool.Get().(*matrix.RowBlock)
		frameIdx := brd.Frames()
		err := brd.ReadRowBlock(blk)
		if err == io.EOF {
			r.pool.Put(blk)
			return delivered, frames, nil
		}
		if err != nil {
			r.pool.Put(blk)
			return delivered, frames, r.locate(b, frameIdx, err)
		}
		metricFrames.Inc()
		delivered += blk.Len()
		frames++
		if err := r.deliver(blk); err != nil {
			return delivered, frames, err
		}
	}
}

// locate wraps err as a *PassError naming the bucket, segment, and
// frame where a pass died (frame -1 when the failure precedes any
// frame). Errors already located keep their original position.
func (r *passReader) locate(b bucket, frame int64, err error) error {
	var pe *PassError
	if errors.As(err, &pe) {
		return err
	}
	return &PassError{Bucket: b.bkt, Segment: filepath.Base(b.path), Frame: frame, Err: err}
}

// deliver broadcasts one block to every still-attached view. It fails
// with the cancel cause when the pass was cancelled under it, and with
// errPassClosed when no view is left to read it.
func (r *passReader) deliver(blk *matrix.RowBlock) error {
	sb := &sharedBlock{blk: blk}
	sb.refs.Store(int32(len(r.views)))
	attached := false
	for _, v := range r.views {
		select {
		case <-v.done:
			sb.release(&r.pool)
			continue
		default:
		}
		select {
		case v.ch <- sb:
			metricBroadcastDepth.Inc()
			attached = true
		case <-v.done:
			sb.release(&r.pool)
		case <-r.stop:
			sb.release(&r.pool)
			return r.causeErr()
		}
	}
	if !attached {
		return errPassClosed
	}
	return nil
}

// view is one consumer's cursor over a broadcast pass. It implements
// core.Rows (sequential Row(i)) and core.ReleasableRows.
type view struct {
	r     *passReader
	total int
	ch    chan *sharedBlock
	done  chan struct{}
	once  sync.Once
	cur   *sharedBlock
	idx   int // next row within cur
	next  int // next absolute row index
}

func (v *view) Len() int { return v.total }

func (v *view) Row(i int) []matrix.Col {
	if i != v.next {
		panic(newPassError(fmt.Errorf("out-of-order read: got %d, want %d", i, v.next)))
	}
	v.next++
	for v.cur == nil || v.idx == v.cur.blk.Len() {
		if v.cur != nil {
			v.cur.release(&v.r.pool)
			v.cur = nil
		}
		var sb *sharedBlock
		var ok bool
		select {
		case sb, ok = <-v.ch:
		default:
			metricPrefetchStalls.Inc() // miner outran the prefetch reader
			sb, ok = <-v.ch
		}
		if !ok {
			err := v.r.err
			if err == nil {
				err = fmt.Errorf("pass ended at row %d of %d", v.next-1, v.total)
			}
			panic(asPassError(err))
		}
		metricBroadcastDepth.Dec()
		v.cur = sb
		v.idx = 0
	}
	row := v.cur.blk.Row(v.idx)
	v.idx++
	if v.next == v.total {
		// Final row: detach from the reader so it can finish, but keep
		// cur un-pooled — the caller may still hold this row's slice.
		v.Release()
	}
	return row
}

// Release detaches the view from the broadcast: the reader skips it
// from now on, and anything already queued is drained back to the pool
// (by the reader at exit, or here once the channel is closed). The
// current block is intentionally not pooled: the consumer's last row
// may still alias it. Idempotent; safe after the pass completed.
func (v *view) Release() {
	v.once.Do(func() {
		close(v.done)
		for {
			select {
			case sb, ok := <-v.ch:
				if !ok {
					return
				}
				metricBroadcastDepth.Dec()
				sb.release(&v.r.pool)
			default:
				return
			}
		}
	})
}
