// Package store is the durable dataset store behind dmcserve: every
// uploaded dataset survives a crash, a SIGKILL or a redeploy, and a
// restart with the same data directory recovers the exact catalog.
//
// The design is the same ordering-based crash-safety protocol as the
// stream checkpoint layer (no write-ahead of intent, just commit
// points):
//
//   - dataset bytes land as immutable, content-addressed blob files
//     under blobs/ — written to "<name>.tmp", fsynced, then atomically
//     renamed; two names with identical content share one blob;
//   - the catalog itself is an append-only CRC-framed journal
//     (CATALOG): a dataset exists exactly when its "put" record is
//     durably in the journal, so the journal append is the single
//     commit point of an upload;
//   - replay at boot folds the journal; a torn tail (crash mid-append)
//     is detected by the frame CRC, trusted up to the tear, and
//     repaired by rewriting the journal from the live set — while
//     damage a tear cannot produce (bad magic, mid-file corruption
//     with valid frames after it) fails Open with ErrCorrupt so
//     committed records are never repaired away;
//   - renames and the journal's creation are followed by an fsync of
//     the containing directory, so every commit point survives power
//     loss, not just process death;
//   - past a churn threshold the journal is compacted to a snapshot of
//     the live records via the same tmp+fsync+rename dance, and blobs
//     no live record references are garbage-collected;
//   - boot also sweeps *.tmp debris and the scratch directory (spill
//     and degrade workspace for the mining engines), so a kill at any
//     point leaves nothing half-written behind.
//
// All file operations route through a fault.FS seam, so the fault
// matrix can tear journal writes, run out of disk mid-commit, or kill
// fsync, and assert the catalog never lies.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/obs"
)

// Store-level series on the process registry, mirroring the style of
// the fault and stream packages.
var (
	metricPuts = obs.Default.Counter("dmc_store_puts_total",
		"Datasets durably committed to the store.")
	metricDeletes = obs.Default.Counter("dmc_store_deletes_total",
		"Datasets deleted from the store.")
	metricCompactions = obs.Default.Counter("dmc_store_compactions_total",
		"Journal compactions (snapshot rewrites of CATALOG).")
	metricReplays = obs.Default.Counter("dmc_store_replays_total",
		"Journal replays at store open.")
	metricTornTails = obs.Default.Counter("dmc_store_torn_tails_total",
		"Torn or corrupt journal tails detected and repaired at replay.")
	metricDatasets = obs.Default.Gauge("dmc_store_datasets",
		"Datasets currently live in the store catalog.")
	metricJournalRecords = obs.Default.Gauge("dmc_store_journal_records",
		"Records in the CATALOG journal (compaction resets to the live count).")
	metricBlobMismatches = obs.Default.Counter("dmc_store_blob_mismatches_total",
		"Live blobs an append found unreadable or not matching their content address; the append re-encoded the dataset instead.")
)

const (
	catalogName = "CATALOG"
	blobDirName = "blobs"
	scratchName = "scratch"
)

// ErrCorrupt marks a journal the store refuses to touch: Open returns
// it when replay finds damage a crash tear cannot explain (bad magic,
// mid-file corruption with committed records after it) — repair would
// destroy committed data, so the operator must intervene. It also
// poisons a store whose journal could not be repaired after a failed
// append: further mutations are refused until the store is reopened.
var ErrCorrupt = errors.New("store: journal corrupt; reopen the store")

// ErrNotFound is returned by Get/Load/Delete for an unknown dataset.
var ErrNotFound = errors.New("store: no such dataset")

// Options tunes a Store. The zero value is production-safe.
type Options struct {
	// FS routes every durable file operation; nil means the real
	// filesystem. Tests install a fault.Injector here.
	FS fault.FS
	// CompactEvery triggers a journal compaction once the journal holds
	// this many records beyond the live set (replaced uploads, deletes).
	// ≤ 0 means 64.
	CompactEvery int
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
	return 64
}

// Entry is one live dataset in the catalog.
type Entry struct {
	Name    string
	Path    string // absolute blob path, loadable via matrix.Load
	Hash    string // content address ("sha256-<hex>"), the blob's identity
	Rows    int
	Cols    int
	Ones    int
	Labeled bool
	Size    int64 // blob size in bytes (streaming-threshold routing)
}

// Store is a durable dataset catalog over one data directory. Safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	entries  map[string]record
	journal  fault.File // open append handle; nil after Close
	total    int        // records in the journal
	poisoned bool       // a failed append could not be repaired
}

// Open opens (creating if needed) the store at dir: sweeps crash
// debris, replays the CATALOG journal, repairs a torn tail, compacts
// past the churn threshold, and garbage-collects unreferenced blobs.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts}
	for _, d := range []string{dir, s.blobDir(), s.ScratchDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// Scratch is wholly store-owned workspace (spill directories,
	// degrade temp files): anything in it after a restart is debris
	// from a killed mine.
	if err := sweepDir(s.ScratchDir()); err != nil {
		return nil, err
	}
	sweepTmp(dir)
	sweepTmp(s.blobDir())

	live, total, torn, err := replayJournal(opts.fs(), s.catalogPath())
	if err != nil {
		return nil, err
	}
	metricReplays.Inc()
	s.entries, s.total = live, total
	if torn {
		metricTornTails.Inc()
	}
	if torn || total-len(live) >= opts.compactEvery() {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	} else if err := s.openJournalLocked(); err != nil {
		return nil, err
	}
	if err := s.gcBlobsLocked(); err != nil {
		return nil, err
	}
	s.gauges()
	return s, nil
}

func (s *Store) catalogPath() string { return filepath.Join(s.dir, catalogName) }
func (s *Store) blobDir() string     { return filepath.Join(s.dir, blobDirName) }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// ScratchDir is store-owned scratch space for the mining engines'
// spill directories and degrade temp files. It is swept at every Open,
// so spill debris from a SIGKILLed mine never outlives the restart.
func (s *Store) ScratchDir() string { return filepath.Join(s.dir, scratchName) }

// Close releases the journal handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Len returns the number of live datasets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// List returns the live catalog sorted by name.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, rec := range s.entries {
		out = append(out, s.entryLocked(rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the live entry for name.
func (s *Store) Get(name string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.entries[name]
	if !ok {
		return Entry{}, false
	}
	return s.entryLocked(rec), true
}

func (s *Store) entryLocked(rec record) Entry {
	// The content address is the blob's base name minus its extension —
	// derived, not journaled, so old journals stay readable.
	base := filepath.Base(filepath.FromSlash(rec.Blob))
	hash := base[:len(base)-len(filepath.Ext(base))]
	return Entry{
		Name: rec.Name, Path: filepath.Join(s.dir, filepath.FromSlash(rec.Blob)),
		Hash: hash,
		Rows: rec.Rows, Cols: rec.Cols, Ones: rec.Ones, Labeled: rec.Labeled, Size: rec.Size,
	}
}

// Load reads the named dataset's matrix back from its blob.
func (s *Store) Load(name string) (*matrix.Matrix, error) {
	e, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return matrix.Load(e.Path)
}

// Put durably stores m under name, replacing any previous dataset of
// that name. On return the dataset survives SIGKILL: the blob (and its
// labels companion, when labeled) is committed via tmp+fsync+rename
// before the journal record — the single commit point — is appended
// and fsynced. On error the catalog is unchanged.
func (s *Store) Put(name string, m *matrix.Matrix) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := matrix.EncodeBinary(m)
	if err != nil {
		return Entry{}, fmt.Errorf("store: put %q: %w", name, err)
	}
	return s.commitLocked(name, m, data, m.NumOnes())
}

// Append durably stores grown under name exactly as Put does, for a
// caller that promises grown's first rows are the matrix stored at
// content address baseHash. When name's live entry is at baseHash and
// its blob and labels still hash to it, grown's blob is that blob's
// row records plus the new rows' (matrix.ExtendBinary), so the encode
// follows the batch, not the dataset. Every other case — no entry,
// another address (a racing Put), a read error or a mismatch — encodes
// grown in full, which also replaces a damaged blob instead of copying
// the damage forward. The committed bytes are the same either way.
func (s *Store) Append(name, baseHash string, grown *matrix.Matrix) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ones, ok := s.spliceLocked(name, baseHash, grown)
	if !ok {
		var err error
		if data, err = matrix.EncodeBinary(grown); err != nil {
			return Entry{}, fmt.Errorf("store: put %q: %w", name, err)
		}
		ones = grown.NumOnes()
	}
	return s.commitLocked(name, grown, data, ones)
}

// spliceLocked returns grown's blob built on the live blob of name and
// grown's count of ones, both derived from that entry, when the entry
// is at baseHash, holds at most grown's rows, and its blob and labels
// re-hash to baseHash. ok is false otherwise.
func (s *Store) spliceLocked(name, baseHash string, grown *matrix.Matrix) (data []byte, ones int, ok bool) {
	rec, live := s.entries[name]
	if !live || s.entryLocked(rec).Hash != baseHash || rec.Rows > grown.NumRows() {
		return nil, 0, false
	}
	fs := s.opts.fs()
	path := filepath.Join(s.dir, filepath.FromSlash(rec.Blob))
	old, err := readFile(fs, path)
	var labels []byte
	if err == nil && rec.Labeled && rec.Cols > 0 { // no companion is written for zero labels
		labels, err = readFile(fs, path+".labels")
	}
	if err != nil || hashBytes(old, labels) != baseHash {
		metricBlobMismatches.Inc()
		return nil, 0, false
	}
	if data, err = matrix.ExtendBinary(old, grown); err != nil {
		// The verified base is wider than grown, so grown does not
		// extend it: the caller's promise does not hold.
		return nil, 0, false
	}
	ones = rec.Ones
	for i := rec.Rows; i < grown.NumRows(); i++ {
		ones += grown.RowWeight(i)
	}
	return data, ones, true
}

// readFile reads the whole of path through fs.
func readFile(fs fault.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// commitLocked makes data, m's binary encoding, live under name — the
// commit protocol Put and Append share. ones is m's count of ones.
func (s *Store) commitLocked(name string, m *matrix.Matrix, data []byte, ones int) (Entry, error) {
	if s.poisoned {
		return Entry{}, ErrCorrupt
	}
	rec, err := s.writeBlobLocked(name, m, data, ones)
	if err != nil {
		return Entry{}, fmt.Errorf("store: put %q: %w", name, err)
	}
	if err := s.appendLocked(rec); err != nil {
		return Entry{}, fmt.Errorf("store: put %q: %w", name, err)
	}
	s.entries[name] = rec
	metricPuts.Inc()
	if s.total-len(s.entries) >= s.opts.compactEvery() {
		// Compaction is an optimization: its failure must not fail the
		// already-committed Put or Append. A sick disk will resurface on
		// the next mutation anyway.
		if err := s.compactLocked(); err == nil {
			_ = s.gcBlobsLocked()
		}
	}
	s.gauges()
	return s.entryLocked(rec), nil
}

// Delete removes name from the catalog. The blob stays until the next
// compaction garbage-collects it (another name may share it).
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned {
		return ErrCorrupt
	}
	if _, ok := s.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := s.appendLocked(record{Op: "del", Name: name}); err != nil {
		return fmt.Errorf("store: delete %q: %w", name, err)
	}
	delete(s.entries, name)
	metricDeletes.Inc()
	s.gauges()
	return nil
}

// writeBlobLocked commits data, m's binary encoding, as a
// content-addressed blob, returning the journal record that would make
// it live. Blobs are immutable: if the hash already exists on disk the
// write is skipped (dedupe). The labels companion is committed before
// the data file so a committed journal record never names a blob
// matrix.Load cannot fully reconstruct.
func (s *Store) writeBlobLocked(name string, m *matrix.Matrix, data []byte, ones int) (record, error) {
	var labels []byte
	if m.Labels() != nil {
		var err error
		labels, err = matrix.EncodeLabels(m.Labels())
		if err != nil {
			return record{}, err
		}
	}
	blobRel := blobDirName + "/" + hashBytes(data, labels) + matrix.ExtBinary
	blobAbs := filepath.Join(s.dir, filepath.FromSlash(blobRel))
	if _, err := os.Stat(blobAbs); err != nil {
		if labels != nil {
			if err := s.commitFile(blobAbs+".labels", labels); err != nil {
				return record{}, err
			}
		}
		if err := s.commitFile(blobAbs, data); err != nil {
			return record{}, err
		}
	}
	return record{
		Op: "put", Name: name, Blob: blobRel,
		Rows: m.NumRows(), Cols: m.NumCols(), Ones: ones,
		Labeled: m.Labels() != nil, Size: int64(len(data)),
	}, nil
}

// ContentHash returns m's content address — the same "sha256-<hex>"
// identity the store names blobs by and reports in Entry.Hash, so
// layers above (the mine-result cache) can derive keys for matrices
// that never touched a store. Two matrices hash equal exactly when
// their encoded bytes and labels are identical.
func ContentHash(m *matrix.Matrix) (string, error) {
	data, err := matrix.EncodeBinary(m)
	if err != nil {
		return "", err
	}
	var labels []byte
	if m.Labels() != nil {
		if labels, err = matrix.EncodeLabels(m.Labels()); err != nil {
			return "", err
		}
	}
	return hashBytes(data, labels), nil
}

// hashBytes is the blob naming scheme: sha256 over the encoded matrix,
// then a zero byte and the encoded labels when present.
func hashBytes(data, labels []byte) string {
	h := sha256.New()
	h.Write(data)
	if labels != nil {
		h.Write([]byte{0})
		h.Write(labels)
	}
	return "sha256-" + hex.EncodeToString(h.Sum(nil))[:32]
}

// commitFile writes data to path via tmp+fsync+rename through the
// fault seam, removing the tmp on any failure.
func (s *Store) commitFile(path string, data []byte) error {
	return CommitBlob(s.opts.fs(), path, data)
}

// CommitBlob writes data to path with the store's full durability
// discipline — "<path>.tmp", fsync, atomic rename, then an fsync of the
// containing directory — removing the tmp on any failure. Exported so
// sibling durable layers (the job subsystem's result blobs) commit
// their files under the exact same crash-safety protocol instead of
// reinventing it. A nil fs means the real filesystem.
var blobTmpSeq atomic.Uint64

func CommitBlob(fs fault.FS, path string, data []byte) error {
	if fs == nil {
		fs = fault.OS
	}
	// The tmp name carries a per-process sequence so concurrent commits
	// of the same content address (two jobs producing identical results)
	// never clobber each other's staging file. Either rename wins; the
	// bytes are the same.
	tmp := fmt.Sprintf("%s.%d.tmp", path, blobTmpSeq.Add(1))
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is only durable once the directory entry is: without
	// this fsync a power cut can durably journal a record whose blob
	// name was lost, and the catalog would lie at the next boot.
	return fault.SyncDir(fs, filepath.Dir(path))
}

// BlobHash returns the content address ("sha256-<hex>") of a raw
// payload, in the same naming scheme the store uses for dataset blobs —
// the identity the job subsystem journals for committed mine results.
func BlobHash(payload []byte) string { return hashBytes(payload, nil) }

// appendLocked durably appends one record to the journal. On failure
// the file may hold a torn frame, which would poison every later
// append — so the journal is immediately rewritten from the live set
// (which does not include rec); if even that fails the store is
// poisoned until reopened.
func (s *Store) appendLocked(rec record) error {
	if s.journal == nil {
		if err := s.openJournalLocked(); err != nil {
			return err
		}
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := s.journal.Write(frame); err != nil {
			return err
		}
		return s.journal.Sync()
	}()
	if werr == nil {
		s.total++
		return nil
	}
	if cerr := s.compactLocked(); cerr != nil {
		s.poisoned = true
		return errors.Join(werr, cerr, ErrCorrupt)
	}
	return werr
}

// openJournalLocked opens the append handle, creating the journal with
// its magic header if it does not exist yet.
func (s *Store) openJournalLocked() error {
	fs := s.opts.fs()
	fi, statErr := os.Stat(s.catalogPath())
	fresh := statErr != nil || fi.Size() == 0
	f, err := fs.Append(s.catalogPath())
	if err != nil {
		return err
	}
	if fresh {
		if err := writeJournalHeader(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		// Make the journal's own directory entry durable before any
		// record is appended: a power cut must not be able to lose the
		// file that holds the commit log.
		if err := fault.SyncDir(fs, filepath.Dir(s.catalogPath())); err != nil {
			f.Close()
			return err
		}
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal = f
	return nil
}

// compactLocked snapshots the live set into a fresh journal and
// atomically replaces CATALOG with it, then reopens the append handle
// (the old handle points at the unlinked inode).
func (s *Store) compactLocked() error {
	fs := s.opts.fs()
	tmp := s.catalogPath() + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	werr := func() error {
		if err := writeJournalHeader(f); err != nil {
			return err
		}
		names := make([]string, 0, len(s.entries))
		for n := range s.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			frame, err := frameRecord(s.entries[n])
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
	if err := fs.Rename(tmp, s.catalogPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	// Same discipline as commitFile: the snapshot replaces CATALOG only
	// once the rename itself is durable.
	if err := fault.SyncDir(fs, filepath.Dir(s.catalogPath())); err != nil {
		return err
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	if err := s.openJournalLocked(); err != nil {
		return err
	}
	s.total = len(s.entries)
	metricCompactions.Inc()
	return nil
}

// gcBlobsLocked removes blob files (and labels companions) no live
// record references — superseded uploads and blobs orphaned by a crash
// between blob commit and journal append. Removal failures are
// ignored: an unreferenced blob is invisible and harmless.
func (s *Store) gcBlobsLocked() error {
	refs := make(map[string]bool, len(s.entries))
	for _, rec := range s.entries {
		refs[filepath.Base(filepath.FromSlash(rec.Blob))] = true
	}
	des, err := os.ReadDir(s.blobDir())
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		base := name
		if filepath.Ext(base) == ".labels" {
			base = base[:len(base)-len(".labels")]
		}
		if !refs[base] {
			os.Remove(filepath.Join(s.blobDir(), name))
		}
	}
	return nil
}

func (s *Store) gauges() {
	metricDatasets.Set(int64(len(s.entries)))
	metricJournalRecords.Set(int64(s.total))
}

// sweepDir empties dir without removing it.
func sweepDir(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

// sweepTmp removes *.tmp debris (a crashed commit's half-written file)
// directly under dir.
func sweepTmp(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return
	}
	for _, f := range stale {
		os.Remove(f)
	}
}

func isNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }
