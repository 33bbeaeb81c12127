package server

import (
	"context"
	"errors"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/obs"
	"dmc/internal/stream"
)

// Kept partitions: the first streamed mine of a file-backed dataset
// partitions its file into the §4.1 density buckets under the scratch
// directory — the paper's first pass, which reads no threshold — and
// keeps the segments. Every later mine replays them through a
// core.Prepared whose memo holds each family's 100% rules, so it runs
// only the step-3 cutoff and the <100% phase, exactly as a resident
// dataset's mine does.
//
// A kept partition serves its registration only while the file is the
// one it was built from. A store blob is immutable and named by its
// content hash, so its partition stays valid for the registration's
// life. An AddFile path can be rewritten: its partition is reused only
// while the file's identity (inode, size, mtime) is the one captured
// before the build read it, and only if that mtime was already
// racyMargin older than the build's start. Otherwise the file is
// partitioned again, with a fresh memo.
//
// Concurrent mines share one committed segment set, each replaying it
// under its own context. A rebuild writes a new directory; the old one
// is removed when its last reader leaves. No partition outlives its
// registration or the server's Run, and a build that runs out of disk
// evicts idle partitions, least recently used first, and retries once.

// racyMargin is how much older than a build's start an AddFile input's
// mtime must be for the build to serve later mines. A rewrite that
// keeps the size and lands in the mtime tick of the version the build
// read leaves the identity unchanged; git's index distrusts such
// "racy" entries the same way. Two seconds covers FAT's two-second
// mtime, the one-second mtime of ext3 and HFS+, and the coarse kernel
// clock that stamps nanosecond filesystems.
const racyMargin = 2 * time.Second

// errSlotClosed answers a mine whose dataset registration has ended:
// it partitions for itself instead of building a partition nothing
// would remove.
var errSlotClosed = errors.New("server: dataset registration ended")

// keptSet is a server's kept partitions.
type keptSet struct {
	mu    sync.Mutex
	slots map[*partSlot]struct{} // open slots: registered file-backed datasets

	bytes  obs.Gauge
	reuses obs.Counter
	// fs, when set, routes the builds' spill files (tests inject
	// faults here).
	fs fault.FS
}

// partSlot is one file-backed registration's kept partition. Its fields
// are guarded by keptSet.mu.
type partSlot struct {
	cur *keptPart
	// building is closed when the slot's in-flight build ends; nil when
	// none runs. Mines that find it wait, then look again.
	building chan struct{}
	closed   bool
}

// keptPart is one committed segment set and its memo.
type keptPart struct {
	part *stream.Partitioned
	prep *core.Prepared
	id   stream.Identity // an AddFile input's identity before the build read it

	// Guarded by keptSet.mu.
	refs    int       // mines replaying it
	retired bool      // no new mines; removed when refs drops to 0
	used    time.Time // last acquire, for eviction
}

func newKeptSet(reg *obs.Registry) *keptSet {
	return &keptSet{
		slots: make(map[*partSlot]struct{}),
		bytes: reg.Gauge("dmc_stream_kept_bytes",
			"Bytes of density-bucket partitions kept on disk for file-backed datasets."),
		reuses: reg.Counter("dmc_stream_partition_reuses_total",
			"Streamed mines that replayed a kept partition instead of partitioning their file."),
	}
}

// open returns a slot for a new file-backed registration.
func (ks *keptSet) open() *partSlot {
	sl := &partSlot{}
	ks.mu.Lock()
	ks.slots[sl] = struct{}{}
	ks.mu.Unlock()
	return sl
}

// close ends sl's registration: its partition is removed once no mine
// replays it, and later mines get errSlotClosed. Safe on nil.
func (ks *keptSet) close(sl *partSlot) {
	if sl == nil {
		return
	}
	ks.mu.Lock()
	sl.closed = true
	delete(ks.slots, sl)
	dead := ks.dropLocked(sl)
	ks.mu.Unlock()
	ks.remove(dead)
}

// closeAll ends every open slot.
func (ks *keptSet) closeAll() {
	ks.mu.Lock()
	var dead []*keptPart
	for sl := range ks.slots {
		sl.closed = true
		delete(ks.slots, sl)
		dead = append(dead, ks.dropLocked(sl)...)
	}
	ks.mu.Unlock()
	ks.remove(dead)
}

// acquire returns d's partition for one mine, building it first when
// none is current, with a reference that release gives back. cfg sets
// the build's fan-out and spill directory; the build runs under ctx. A
// mine that finds a build in flight waits for it and looks again, so a
// waiter whose builder failed or was cancelled builds for itself.
func (ks *keptSet) acquire(ctx context.Context, d *dataset, cfg stream.Config) (*keptPart, error) {
	sl := d.slot
	for {
		var id stream.Identity
		if d.hash == "" {
			var err error
			if id, err = stream.Identify(d.path); err != nil {
				return nil, err
			}
		}
		ks.mu.Lock()
		if sl.closed {
			ks.mu.Unlock()
			return nil, errSlotClosed
		}
		var dead []*keptPart
		if k := sl.cur; k != nil {
			if d.hash != "" || k.id.Same(id) {
				k.refs++
				k.used = time.Now()
				ks.mu.Unlock()
				ks.reuses.Inc()
				return k, nil
			}
			dead = ks.dropLocked(sl) // the file changed under it
		}
		if wait := sl.building; wait != nil {
			ks.mu.Unlock()
			ks.remove(dead)
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		sl.building = done
		ks.mu.Unlock()
		ks.remove(dead)

		k, trusted, err := ks.build(ctx, d, id, cfg)
		ks.mu.Lock()
		sl.building = nil
		close(done)
		if err != nil {
			ks.mu.Unlock()
			return nil, err
		}
		k.refs, k.used = 1, time.Now()
		if trusted && !sl.closed {
			sl.cur = k
		} else {
			k.retired = true // serves this mine only
		}
		ks.mu.Unlock()
		return k, nil
	}
}

// build partitions d's file under ctx and reports whether the result
// may serve later mines: a store blob's always may, an AddFile input's
// only if its identity held through the build and its mtime was
// racyMargin older than the build's start. A build that fails for want
// of disk evicts idle partitions and, if that freed any, runs once more.
func (ks *keptSet) build(ctx context.Context, d *dataset, id stream.Identity, cfg stream.Config) (*keptPart, bool, error) {
	start := time.Now()
	cfg.Ctx = ctx
	if ks.fs != nil {
		cfg.FS = ks.fs
	}
	part, err := stream.PartitionWith(d.path, cfg)
	if errors.Is(err, syscall.ENOSPC) {
		// The spill is about the size of its input.
		if fi, serr := os.Stat(d.path); serr == nil && ks.evict(fi.Size()) > 0 {
			part, err = stream.PartitionWith(d.path, cfg)
		}
	}
	if err != nil {
		return nil, false, err
	}
	ks.bytes.Add(part.Bytes())
	k := &keptPart{part: part, prep: core.PrepareSource(part, part.Ones()), id: id}
	if d.hash != "" {
		return k, true, nil
	}
	now, err := stream.Identify(d.path)
	return k, err == nil && id.Same(now) && id.ModTime().Before(start.Add(-racyMargin)), nil
}

// release gives back a reference acquire took.
func (ks *keptSet) release(k *keptPart) {
	ks.mu.Lock()
	k.refs--
	dead := k.retired && k.refs == 0
	ks.mu.Unlock()
	if dead {
		ks.remove([]*keptPart{k})
	}
}

// retire stops sl from serving k, if it still does: the next mine
// partitions the file again.
func (ks *keptSet) retire(sl *partSlot, k *keptPart) {
	ks.mu.Lock()
	var dead []*keptPart
	if sl.cur == k {
		dead = ks.dropLocked(sl)
	}
	ks.mu.Unlock()
	ks.remove(dead)
}

// evict retires idle current partitions, least recently used first,
// until need bytes are freed or none is left, and returns the bytes
// freed.
func (ks *keptSet) evict(need int64) int64 {
	ks.mu.Lock()
	var idle []*partSlot
	for sl := range ks.slots {
		if sl.cur != nil && sl.cur.refs == 0 {
			idle = append(idle, sl)
		}
	}
	slices.SortFunc(idle, func(a, b *partSlot) int { return a.cur.used.Compare(b.cur.used) })
	var dead []*keptPart
	var freed int64
	for _, sl := range idle {
		if freed >= need {
			break
		}
		freed += sl.cur.part.Bytes()
		dead = append(dead, ks.dropLocked(sl)...)
	}
	ks.mu.Unlock()
	ks.remove(dead)
	return freed
}

// dropLocked retires sl's current partition and returns it if no mine
// replays it, for remove to delete outside the lock.
func (ks *keptSet) dropLocked(sl *partSlot) []*keptPart {
	k := sl.cur
	if k == nil {
		return nil
	}
	sl.cur = nil
	k.retired = true
	if k.refs > 0 {
		return nil
	}
	return []*keptPart{k}
}

// remove deletes retired partitions that no mine replays.
func (ks *keptSet) remove(dead []*keptPart) {
	for _, k := range dead {
		k.part.Close()
		ks.bytes.Add(-k.part.Bytes())
	}
}
