package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmc/internal/matrix"
)

func mustBaskets(t *testing.T, text string) *matrix.Matrix {
	t.Helper()
	m, err := matrix.ReadBaskets(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// assertNoTmpDebris walks the whole data directory: a recovered store
// must never leave *.tmp files behind.
func assertNoTmpDebris(t *testing.T, dir string) {
	t.Helper()
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("tmp debris survived recovery: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStorePutGetReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	m1 := mustBaskets(t, "bread butter\nbread butter jam\nbread\n")
	m2 := mustBaskets(t, "x y z\nx y\n")

	e1, err := s.Put("groceries", m1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Rows != 3 || !e1.Labeled || e1.Size <= 0 {
		t.Fatalf("entry = %+v", e1)
	}
	if _, err := s.Put("letters", m2); err != nil {
		t.Fatal(err)
	}
	// Replace groceries with different content.
	m3 := mustBaskets(t, "bread jam\nbread jam\n")
	if _, err := s.Put("groceries", m3); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A fresh open replays the journal and recovers the exact catalog.
	r := openStore(t, dir, Options{})
	if r.Len() != 2 {
		t.Fatalf("recovered %d datasets, want 2", r.Len())
	}
	got, err := r.Load("groceries")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Label(0) != m3.Label(0) {
		t.Fatalf("recovered groceries = %d rows, labels %v", got.NumRows(), got.Labels())
	}
	if lst := r.List(); len(lst) != 2 || lst[0].Name != "groceries" || lst[1].Name != "letters" {
		t.Fatalf("list = %+v", lst)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("phantom dataset")
	}
	assertNoTmpDebris(t, dir)
}

// Identical content under two names shares one content-addressed blob.
// TestContentHashGolden pins the content address of a labeled fixture.
// Blob names, mine-cache keys and fleet replica identities are this
// hash, so a change to the encoded bytes orphans every stored entry.
// The literal was computed with the earlier varint-at-a-time encoder.
func TestContentHashGolden(t *testing.T) {
	m := matrix.FromRows(4, [][]matrix.Col{{0, 1}, {}, {1, 2, 3}, {3}})
	m.SetLabels([]string{"bread", "butter", "jam", "tea"})
	got, err := ContentHash(m)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256-c69963ea5c0800aee4dc14a181465543"
	if got != want {
		t.Fatalf("ContentHash = %s, want %s", got, want)
	}
	e, err := openStore(t, t.TempDir(), Options{}).Put("d", m)
	if err != nil {
		t.Fatal(err)
	}
	if e.Hash != want {
		t.Fatalf("Put hash = %s, want %s", e.Hash, want)
	}
}

func TestStoreContentAddressedDedupe(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	m := mustBaskets(t, "a b\na c\n")
	ea, err := s.Put("first", m)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := s.Put("second", m)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Path != eb.Path {
		t.Fatalf("identical content got two blobs: %s vs %s", ea.Path, eb.Path)
	}
	// Deleting one name must not break the other (blob GC is
	// reference-counted across the live set).
	if err := s.Delete("first"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openStore(t, dir, Options{})
	if _, err := r.Load("second"); err != nil {
		t.Fatalf("shared blob lost after delete+reopen: %v", err)
	}
	if _, ok := r.Get("first"); ok {
		t.Fatal("deleted dataset resurrected")
	}
}

func TestStoreCompactionAndGC(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 4})
	// Churn one name with distinct contents: each Put supersedes the
	// last record and strands the previous blob.
	for i := 0; i < 10; i++ {
		m := mustBaskets(t, strings.Repeat("a b\n", i+1))
		if _, err := s.Put("churn", m); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	total, live := s.total, len(s.entries)
	s.mu.Unlock()
	if total-live >= 2*4 {
		t.Fatalf("journal never compacted: %d records for %d live", total, live)
	}
	s.Close()

	r := openStore(t, dir, Options{})
	if r.Len() != 1 {
		t.Fatalf("recovered %d datasets, want 1", r.Len())
	}
	m, err := r.Load("churn")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 10 {
		t.Fatalf("recovered churn has %d rows, want the last Put's 10", m.NumRows())
	}
	// GC: only the live blob (and its labels companion) remain.
	des, err := os.ReadDir(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) > 2 {
		t.Fatalf("%d files in blobs/ after GC, want <= 2 (blob + labels)", len(des))
	}
	assertNoTmpDebris(t, dir)
}

// A torn journal tail — the on-disk signature of SIGKILL mid-append —
// is detected at replay, trusted up to the tear, and repaired.
func TestStoreTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.Put("keep", mustBaskets(t, "a b\n")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail: a half-written frame of garbage.
	f, err := os.OpenFile(filepath.Join(dir, catalogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openStore(t, dir, Options{})
	if r.Len() != 1 {
		t.Fatalf("recovered %d datasets, want 1", r.Len())
	}
	if _, err := r.Load("keep"); err != nil {
		t.Fatal(err)
	}
	// The repair rewrote the journal: a further Put and reopen must
	// see both datasets (the tear did not poison later appends).
	if _, err := r.Put("after", mustBaskets(t, "c d\n")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openStore(t, dir, Options{})
	if r2.Len() != 2 {
		t.Fatalf("after tear repair + put: %d datasets, want 2", r2.Len())
	}
}

// Mid-file corruption — a bad frame with valid frames after it, which a
// single crash tear cannot produce — must fail Open with ErrCorrupt.
// Truncate-and-repair here would silently discard committed records and
// then GC the blobs they reference; refusing keeps both intact for the
// operator (a restored journal byte recovers the full catalog).
func TestStoreMidJournalCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.Put("one", mustBaskets(t, "a b\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("two", mustBaskets(t, "c d\n")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	blobsBefore, err := os.ReadDir(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the first record's payload: offset 20 is past
	// the 8-byte magic and the first frame's 8-byte header, and the
	// second record's frame is still valid after it.
	path := filepath.Join(dir, catalogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-journal corruption: err = %v, want ErrCorrupt", err)
	}
	// The refused Open must not have "repaired" anything: every blob is
	// still on disk and the journal bytes are untouched, so restoring
	// the flipped byte recovers the complete catalog.
	blobsAfter, err := os.ReadDir(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobsAfter) != len(blobsBefore) {
		t.Fatalf("corrupt-journal Open GCed blobs: %d -> %d files", len(blobsBefore), len(blobsAfter))
	}
	data[20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, Options{})
	if r.Len() != 2 {
		t.Fatalf("restored journal recovered %d datasets, want 2", r.Len())
	}
}

// A journal whose magic is not ours (pointing -data-dir at a foreign or
// incompatible store) must refuse to open, not be "repaired" into an
// empty catalog that GCs whatever the directory held.
func TestStoreForeignJournalFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, catalogName), []byte("NOTDMC00 something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over foreign journal: err = %v, want ErrCorrupt", err)
	}
}

// A strict prefix of the magic is the one header state a crash during
// journal creation can leave: nothing was committed yet, so repair (a
// fresh empty journal) is correct.
func TestStoreTornHeaderRepairs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, catalogName), journalMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, Options{})
	if s.Len() != 0 {
		t.Fatalf("torn-header store recovered %d datasets, want 0", s.Len())
	}
	if _, err := s.Put("fresh", mustBaskets(t, "a b\n")); err != nil {
		t.Fatalf("Put after torn-header repair: %v", err)
	}
}

// Some filesystems surface a crash as a tail of zero blocks. An
// all-zeros frame header passes the CRC check (crc32c of an empty
// payload is 0), so it needs explicit handling: still a repairable
// tear, never ErrCorrupt.
func TestStoreZeroFilledTailRepairs(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.Put("keep", mustBaskets(t, "a b\n")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, catalogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := openStore(t, dir, Options{})
	if r.Len() != 1 {
		t.Fatalf("zero-filled tail recovered %d datasets, want 1", r.Len())
	}
	if _, err := r.Load("keep"); err != nil {
		t.Fatal(err)
	}
}

// Scratch is swept at every open: spill debris from a killed mine must
// not accumulate across restarts.
func TestStoreScratchSweep(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	debris := filepath.Join(s.ScratchDir(), "dmc-stream-12345")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(debris, "bucket-00.rows"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openStore(t, dir, Options{})
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("scratch debris survived reopen: %v", err)
	}
	if _, err := os.Stat(r.ScratchDir()); err != nil {
		t.Fatalf("scratch dir itself must exist: %v", err)
	}
}

func TestStoreDeleteUnknown(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if err := s.Delete("ghost"); err == nil {
		t.Fatal("deleting an unknown dataset must error")
	}
}
