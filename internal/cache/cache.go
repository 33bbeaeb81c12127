// Package cache is the content-addressed mine-result cache behind
// dmcserve: a bounded, LRU-evicting, journaled key→payload store that
// turns a repeat mine of an unchanged (dataset, params) pair into one
// O(1) file read instead of a full DMC scan.
//
// Keys are built from the dataset's content address (the store's
// sha256 blob hash) plus the canonicalized mine parameters, so
// staleness is structurally impossible: changing a dataset's bytes
// changes its hash, which changes every key derived from it — an
// overwritten or deleted dataset simply stops being looked up, and its
// old entries age out of the LRU. Nothing ever needs to be invalidated
// by name.
//
// Durability is deliberately one notch below package store's: a cache
// is rebuildable from its inputs, so where the store refuses to open
// over damage a crash cannot explain (ErrCorrupt), the cache shrugs —
// replay trusts the journal up to the first bad frame, discards the
// rest, and rewrites. Payload files are committed tmp+fsync+rename
// before their journal record lands (the store's ordering protocol),
// and each payload carries a crc32c so a damaged object is re-derived
// instead of served.
//
// Layout under the cache directory:
//
//	CACHE            append-only CRC-framed journal (magic "DMCCCH01")
//	obj/<keyhash>    one payload per entry, uint32 LE crc32c | payload
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"dmc/internal/fault"
	"dmc/internal/obs"
)

var (
	metricHits = obs.Default.Counter("dmc_cache_hits_total",
		"Mine results served from the cache.")
	metricMisses = obs.Default.Counter("dmc_cache_misses_total",
		"Cache lookups that found no usable entry.")
	metricEvictions = obs.Default.Counter("dmc_cache_evictions_total",
		"Entries evicted to keep the cache under its size bound.")
	metricEntries = obs.Default.Gauge("dmc_cache_entries",
		"Entries currently live in the cache.")
	metricBytes = obs.Default.Gauge("dmc_cache_bytes",
		"Payload bytes currently held by the cache.")
)

const (
	journalName = "CACHE"
	objDirName  = "obj"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Cache. The zero value is production-safe.
type Options struct {
	// MaxBytes bounds the total payload bytes held; once exceeded the
	// least-recently-used entries are evicted. ≤ 0 means 256 MiB.
	MaxBytes int64
	// FS routes every durable file operation; nil means the real
	// filesystem. Tests install a fault.Injector here.
	FS fault.FS
	// CompactEvery triggers a journal compaction once the journal holds
	// this many records beyond the live set. ≤ 0 means 256.
	CompactEvery int
}

func (o Options) maxBytes() int64 {
	if o.MaxBytes > 0 {
		return o.MaxBytes
	}
	return 256 << 20
}

func (o Options) fs() fault.FS {
	if o.FS != nil {
		return o.FS
	}
	return fault.OS
}

func (o Options) compactEvery() int {
	if o.CompactEvery > 0 {
		return o.CompactEvery
	}
	return 256
}

// Key composes a cache key from a dataset content address, a result
// kind ("imp", "sim", ...) and canonicalized parameters. The
// parts are length-prefixed so no two distinct triples collide.
func Key(contentHash, kind, params string) string {
	return fmt.Sprintf("%d:%s|%d:%s|%d:%s",
		len(contentHash), contentHash, len(kind), kind, len(params), params)
}

// entry is one live cache entry, threaded on the LRU list.
type entry struct {
	key        string
	file       string // object file name under obj/
	size       int64
	prev, next *entry // LRU links; head = most recent
}

// Cache is a journaled LRU payload cache over one directory. Safe for
// concurrent use.
type Cache struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // next to evict
	bytes   int64
	journal fault.File // open append handle; nil after Close
	total   int        // records in the journal
	closed  bool
}

// Open opens (creating if needed) the cache at dir: sweeps tmp debris,
// replays the journal leniently (damage discards the tail, never fails
// the open), drops entries whose object files are missing, and removes
// orphaned object files.
func Open(dir string, opts Options) (*Cache, error) {
	c := &Cache{dir: dir, opts: opts, entries: make(map[string]*entry)}
	for _, d := range []string{dir, c.objDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	sweepTmp(dir)
	sweepTmp(c.objDir())

	live, total, dirty := replayJournal(opts.fs(), c.journalPath())
	c.total = total
	for _, rec := range live {
		fi, err := os.Stat(filepath.Join(c.objDir(), rec.File))
		if err != nil || fi.Size() != rec.Size+4 {
			// The object never made it (or was torn): the entry is
			// unusable, so the journal record is dropped at compaction.
			dirty = true
			continue
		}
		e := &entry{key: rec.Key, file: rec.File, size: rec.Size}
		c.entries[rec.Key] = e
		c.pushFront(e)
		c.bytes += rec.Size
	}
	if dirty || total-len(c.entries) >= opts.compactEvery() {
		if err := c.compactLocked(); err != nil {
			return nil, err
		}
	} else if err := c.openJournalLocked(); err != nil {
		return nil, err
	}
	c.gcObjectsLocked()
	c.gauges()
	return c, nil
}

func (c *Cache) journalPath() string { return filepath.Join(c.dir, journalName) }
func (c *Cache) objDir() string      { return filepath.Join(c.dir, objDirName) }

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Close compacts the journal (persisting the LRU order) and releases
// the append handle. The cache must not be used after.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.compactLocked()
	if c.journal != nil {
		if cerr := c.journal.Close(); err == nil {
			err = cerr
		}
		c.journal = nil
	}
	return err
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total payload bytes held.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Get returns the payload cached under key, counting a hit or a miss.
// A damaged object file counts as a miss and drops the entry, so the
// caller re-derives and re-Puts.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || c.closed {
		metricMisses.Inc()
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.objDir(), e.file))
	if err == nil && len(data) >= 4 &&
		crc32.Checksum(data[4:], crcTable) == binary.LittleEndian.Uint32(data[:4]) {
		c.moveFront(e)
		metricHits.Inc()
		return data[4:], true
	}
	c.dropLocked(e)
	c.gauges()
	metricMisses.Inc()
	return nil, false
}

// Put caches payload under key, replacing any previous entry and
// evicting least-recently-used entries as needed to stay under the
// size bound. A payload larger than the whole bound is not cached
// (caching it would evict everything for one entry); that is not an
// error. Put does not count a hit or a miss.
func (c *Cache) Put(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cache: closed")
	}
	size := int64(len(payload))
	if size > c.opts.maxBytes() {
		return nil
	}
	file := fileName(key)
	framed := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(framed[:4], crc32.Checksum(payload, crcTable))
	copy(framed[4:], payload)
	if err := c.commitFile(filepath.Join(c.objDir(), file), framed); err != nil {
		return fmt.Errorf("cache: put: %w", err)
	}
	if err := c.appendLocked(record{Op: "put", Key: key, File: file, Size: size}); err != nil {
		return fmt.Errorf("cache: put: %w", err)
	}
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
		c.bytes -= old.size
	}
	e := &entry{key: key, file: file, size: size}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += size
	for c.bytes > c.opts.maxBytes() && c.tail != nil && c.tail != e {
		victim := c.tail
		c.dropLocked(victim)
		metricEvictions.Inc()
	}
	c.maybeCompactLocked()
	c.gauges()
	return nil
}

// Remove deletes the entry under key, if any.
func (c *Cache) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && !c.closed {
		c.dropLocked(e)
		c.maybeCompactLocked()
		c.gauges()
	}
}

// dropLocked removes e from the live set, journals the removal
// (best-effort — a failed append only delays reclamation until the
// next compaction) and deletes its object file.
func (c *Cache) dropLocked(e *entry) {
	_ = c.appendLocked(record{Op: "del", Key: e.key})
	delete(c.entries, e.key)
	c.unlink(e)
	c.bytes -= e.size
	os.Remove(filepath.Join(c.objDir(), e.file))
}

func (c *Cache) maybeCompactLocked() {
	if c.total-len(c.entries) >= c.opts.compactEvery() {
		// Compaction is an optimization; failure surfaces on the next
		// mutation if the disk stays sick.
		_ = c.compactLocked()
	}
}

// fileName is the object file for key: hex sha256, truncated like the
// store's blob names. Deterministic, so re-putting a key overwrites
// its own object.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:32]
}

// LRU list plumbing. head is most recent; tail is the eviction end.

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// commitFile writes data to path via tmp+fsync+rename through the
// fault seam — the store's protocol, so a SIGKILL never leaves a
// half-written object behind a journal record.
func (c *Cache) commitFile(path string, data []byte) error {
	fs := c.opts.fs()
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := f.Write(data); err != nil {
			return err
		}
		return f.Sync()
	}()
	if werr != nil {
		f.Close()
		os.Remove(tmp)
		return werr
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fault.SyncDir(fs, filepath.Dir(path))
}

// appendLocked durably appends one record. On failure the journal may
// hold a torn frame; the cache rewrites it from the live set (lenient
// replay would recover anyway, but the running process should not keep
// appending after a tear).
func (c *Cache) appendLocked(rec record) error {
	if c.journal == nil {
		if err := c.openJournalLocked(); err != nil {
			return err
		}
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := c.journal.Write(frame); err != nil {
			return err
		}
		return c.journal.Sync()
	}()
	if werr == nil {
		c.total++
		return nil
	}
	_ = c.compactLocked()
	return werr
}

func (c *Cache) openJournalLocked() error {
	fs := c.opts.fs()
	fi, statErr := os.Stat(c.journalPath())
	fresh := statErr != nil || fi.Size() == 0
	f, err := fs.Append(c.journalPath())
	if err != nil {
		return err
	}
	if fresh {
		werr := func() error {
			if _, err := f.Write(journalMagic); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			return fault.SyncDir(fs, filepath.Dir(c.journalPath()))
		}()
		if werr != nil {
			f.Close()
			return werr
		}
	}
	if c.journal != nil {
		c.journal.Close()
	}
	c.journal = f
	return nil
}

// compactLocked snapshots the live set into a fresh journal in LRU
// order (coldest first, so replay rebuilds the same eviction order)
// and atomically replaces CACHE.
func (c *Cache) compactLocked() error {
	fs := c.opts.fs()
	tmp := c.journalPath() + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := f.Write(journalMagic); err != nil {
			return err
		}
		for e := c.tail; e != nil; e = e.prev {
			frame, err := frameRecord(record{Op: "put", Key: e.key, File: e.file, Size: e.size})
			if err != nil {
				return err
			}
			if _, err := f.Write(frame); err != nil {
				return err
			}
		}
		return f.Sync()
	}()
	if werr != nil {
		f.Close()
		os.Remove(tmp)
		return werr
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, c.journalPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fault.SyncDir(fs, filepath.Dir(c.journalPath())); err != nil {
		return err
	}
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	if err := c.openJournalLocked(); err != nil {
		return err
	}
	c.total = len(c.entries)
	return nil
}

// gcObjectsLocked removes object files no live entry references —
// evicted payloads whose removal crashed, or entries discarded by a
// lenient replay.
func (c *Cache) gcObjectsLocked() {
	refs := make(map[string]bool, len(c.entries))
	for _, e := range c.entries {
		refs[e.file] = true
	}
	des, err := os.ReadDir(c.objDir())
	if err != nil {
		return
	}
	for _, de := range des {
		if !refs[de.Name()] {
			os.Remove(filepath.Join(c.objDir(), de.Name()))
		}
	}
}

func (c *Cache) gauges() {
	metricEntries.Set(int64(len(c.entries)))
	metricBytes.Set(c.bytes)
}

// sweepTmp removes *.tmp debris directly under dir.
func sweepTmp(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return
	}
	for _, f := range stale {
		os.Remove(f)
	}
}
