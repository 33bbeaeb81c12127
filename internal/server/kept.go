package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/obs"
	"dmc/internal/stream"
)

// Kept partitions: the first streamed mine or job of a file-backed
// dataset partitions its file into the §4.1 density buckets — the
// paper's first pass, which reads no threshold — and keeps the
// segments. Later ones replay them through a core.Prepared whose memo
// holds each family's 100% rules and the <100% rules of its lowest
// threshold mined, as a resident dataset's mine does; a mine the memo
// covers replays nothing.
//
// A store blob is immutable and named by its content hash, so its
// partition serves the registration's whole life. It is durable: a
// stream checkpoint (segments, then MANIFEST.json, each by
// tmp+fsync+rename) in a directory of its own under the store's kept/,
// named by the hash. It outlives Run; LoadStore adopts it at the next
// boot, and the first build resumes it. Any other partition (AddFile,
// LoadDir, no store) is a temporary directory under the scratch
// directory, reused only while the file's identity (inode, size,
// mtime) is the one captured before the build read it and that mtime
// was racyMargin older than the build's start.
//
// Concurrent mines share one committed segment set, each replaying it
// under its own context. A rebuild writes a new directory; the old one,
// like a partition whose registration ends, is removed when its last
// reader leaves. A build that runs out of disk evicts idle partitions,
// least recently used first, and retries once.

// racyMargin is how much older than a build's start an AddFile input's
// mtime must be for the build to serve later mines: a same-size rewrite
// in the mtime tick the build read keeps the identity (git's "racy"
// entries). It covers FAT's two-second mtime, ext3's and HFS+'s one
// second, and the coarse clock that stamps nanosecond filesystems.
const racyMargin = 2 * time.Second

// keptSet is a server's kept partitions.
type keptSet struct {
	mu    sync.Mutex
	slots map[*partSlot]struct{} // open slots: registered file-backed datasets
	// dir holds stored blobs' durable partitions; "" without a store.
	dir string

	bytes  obs.Gauge
	reuses obs.Counter
	fs     fault.FS // when set, routes the builds' files (tests inject faults)
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

// keptPart is one committed segment set and its memo, or, with part
// nil, a durable partition adopted at boot that no build has resumed.
type keptPart struct {
	part  *stream.Partitioned
	prep  *core.Prepared
	id    stream.Identity // an AddFile input's identity before the build read it
	dir   string          // a durable partition's, which remove deletes; "" otherwise
	bytes int64

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
// replays it, and a later mine's partition serves that mine alone.
// Safe on nil.
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

// closeAll ends every open slot; durable partitions stay on disk.
func (ks *keptSet) closeAll() {
	ks.mu.Lock()
	var dead []*keptPart
	for sl := range ks.slots {
		if sl.cur != nil {
			sl.cur.dir = ""
		}
		sl.closed = true
		delete(ks.slots, sl)
		dead = append(dead, ks.dropLocked(sl)...)
	}
	ks.mu.Unlock()
	ks.remove(dead)
}

// acquire returns d's partition for one mine, building it first when
// none is current, with a reference that release gives back, and
// whether this mine ran a partition pass (a build that resumed one from
// disk ran none). cfg sets the build's fan-out and spill directory; the
// build runs under ctx. A mine that finds a build in flight waits for
// it and looks again, so a waiter whose builder failed or was cancelled
// builds for itself.
func (ks *keptSet) acquire(ctx context.Context, d *dataset, cfg stream.Config) (*keptPart, bool, error) {
	sl := d.slot
	for {
		var id stream.Identity
		if d.hash == "" {
			var err error
			if id, err = stream.Identify(d.path); err != nil {
				return nil, false, err
			}
		}
		ks.mu.Lock()
		var dead []*keptPart
		adopted := ""
		if k := sl.cur; k != nil {
			switch {
			case k.part == nil: // the build resumes it
				adopted, sl.cur = k.dir, nil
				ks.bytes.Add(-k.bytes)
			case d.hash != "" || k.id.Same(id):
				k.refs++
				k.used = time.Now()
				ks.mu.Unlock()
				ks.reuses.Inc()
				return k, false, nil
			default:
				dead = ks.dropLocked(sl) // the file changed under it
			}
		}
		if wait := sl.building; wait != nil {
			ks.mu.Unlock()
			ks.remove(dead)
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		done := make(chan struct{})
		sl.building = done
		ks.mu.Unlock()
		ks.remove(dead)

		resumed := false
		cfg.OnResume = func() { resumed = true }
		k, trusted, err := ks.build(ctx, d, id, cfg, adopted)
		ks.mu.Lock()
		sl.building = nil
		close(done)
		if err != nil {
			ks.mu.Unlock()
			return nil, false, err
		}
		k.refs, k.used = 1, time.Now()
		if trusted && !sl.closed {
			sl.cur = k
		} else {
			k.retired = true // serves this mine only
		}
		ks.mu.Unlock()
		return k, !resumed, nil
	}
}

// build partitions d's file under ctx and reports whether the result
// may serve later mines: a store blob's always may, an AddFile input's
// only if its identity held through the build and its mtime was
// racyMargin older than the build's start. A store blob's build is a
// checkpoint in dir (adopted at boot, resumed if valid) or in a new
// directory, removed if the build fails. A build that fails for want of
// disk evicts idle partitions and, if that freed any, runs once more.
func (ks *keptSet) build(ctx context.Context, d *dataset, id stream.Identity, cfg stream.Config, dir string) (*keptPart, bool, error) {
	start := time.Now()
	cfg.Ctx = ctx
	if ks.fs != nil {
		cfg.FS = ks.fs
	}
	if d.hash != "" && ks.dir != "" {
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp(ks.dir, d.hash+"-"); err != nil {
				return nil, false, err
			}
		}
		cfg.CheckpointDir, cfg.Resume = dir, true
	}
	part, err := stream.PartitionWith(d.path, cfg)
	if errors.Is(err, syscall.ENOSPC) {
		// The spill is about the size of its input.
		if fi, serr := os.Stat(d.path); serr == nil && ks.evict(fi.Size()) > 0 {
			part, err = stream.PartitionWith(d.path, cfg)
		}
	}
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, false, err
	}
	ks.bytes.Add(part.Bytes())
	k := &keptPart{part: part, prep: core.PrepareSource(part, part.Ones()), id: id, dir: dir, bytes: part.Bytes()}
	if d.hash != "" {
		return k, true, nil
	}
	now, err := stream.Identify(d.path)
	return k, err == nil && id.Same(now) && id.ModTime().Before(start.Add(-racyMargin)), nil
}

// release gives back a reference acquire took from sl. broken also
// stops sl from serving k, if it still does: the next mine partitions
// the file again.
func (ks *keptSet) release(sl *partSlot, k *keptPart, broken bool) {
	ks.mu.Lock()
	k.refs--
	if broken && sl.cur == k {
		ks.dropLocked(sl)
	}
	dead := k.retired && k.refs == 0
	ks.mu.Unlock()
	if dead {
		ks.remove([]*keptPart{k})
	}
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
		freed += sl.cur.bytes
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
		if k.part != nil {
			k.part.Close()
		}
		if k.dir != "" {
			os.RemoveAll(k.dir)
		}
		ks.bytes.Add(-k.bytes)
	}
}

// adopt hands each of ds, the stored file-backed datasets LoadStore
// registered, a partition an earlier run built from its blob and
// committed, for its first build to resume. Every other entry under the
// kept directory goes: partitions of deleted, replaced or now resident
// datasets, and builds cut off before their manifest.
func (ks *keptSet) adopt(ds []*dataset) {
	wants := map[string][]*dataset{}
	for _, d := range ds {
		wants[d.hash] = append(wants[d.hash], d)
	}
	ents, _ := os.ReadDir(ks.dir)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for _, e := range ents {
		dir := filepath.Join(ks.dir, e.Name())
		hash := e.Name()[:max(strings.LastIndexByte(e.Name(), '-'), 0)] // MkdirTemp's suffix off
		_, err := os.Stat(filepath.Join(dir, "MANIFEST.json"))
		if want := wants[hash]; err == nil && len(want) > 0 {
			want[0].slot.cur = &keptPart{dir: dir, bytes: dirBytes(dir)}
			ks.bytes.Add(want[0].slot.cur.bytes)
			wants[hash] = want[1:]
		} else {
			os.RemoveAll(dir)
		}
	}
}

// dirBytes is the size of dir's spill segments, as Partitioned.Bytes.
func dirBytes(dir string) (n int64) {
	segs, _ := filepath.Glob(filepath.Join(dir, "bucket-*.rows"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			n += fi.Size()
		}
	}
	return n
}
