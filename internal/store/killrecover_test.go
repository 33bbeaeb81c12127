package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

const (
	killModeEnv = "DMCSTORE_KILL_MODE"
	killDirEnv  = "DMCSTORE_KILL_DIR"
)

// killFS is a fault.FS that SIGKILLs the whole process on the Nth
// write to a path containing match — the deterministic stand-in for
// "the machine died at exactly this point of the commit protocol".
type killFS struct {
	match  string
	killAt int64
	writes atomic.Int64
}

func (k *killFS) Create(name string) (fault.File, error) { return k.wrap(fault.OS.Create(name)) }
func (k *killFS) Open(name string) (fault.File, error)   { return fault.OS.Open(name) }
func (k *killFS) Append(name string) (fault.File, error) { return k.wrap(fault.OS.Append(name)) }
func (k *killFS) Rename(o, n string) error               { return fault.OS.Rename(o, n) }

func (k *killFS) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &killFile{File: f, fs: k}, nil
}

type killFile struct {
	fault.File
	fs *killFS
}

func (kf *killFile) Write(p []byte) (int, error) {
	if strings.Contains(kf.File.Name(), kf.fs.match) {
		if n := kf.fs.writes.Add(1); n == kf.fs.killAt {
			// Let half the buffer land first — the torn-write shape a
			// real crash produces — then die without cleanup.
			kf.File.Write(p[:len(p)/2])
			kf.File.Sync()
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	return kf.File.Write(p)
}

// killVictimMatrix is the dataset the victim process tries to commit.
func killVictimMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "anchor c%02d c%02d\n", i%7, 7+i%5)
	}
	return mustBaskets(t, sb.String())
}

// TestHelperStoreKill is not a test: TestStoreKillRecover re-execs the
// binary to run it as the victim. Each mode dies by SIGKILL at a
// different point of the store's commit protocol.
func TestHelperStoreKill(t *testing.T) {
	mode := os.Getenv(killModeEnv)
	if mode == "" {
		t.Skip("helper process for TestStoreKillRecover")
	}
	dir := os.Getenv(killDirEnv)
	var fs fault.FS
	var compactEvery int
	switch mode {
	case "mid-blob":
		// Die halfway through writing the dataset bytes: the blob tmp
		// is torn, no journal record exists.
		fs = &killFS{match: "blobs", killAt: 1}
	case "mid-journal":
		// Blob committed, then die halfway through the journal append:
		// the CATALOG gains a torn tail.
		fs = &killFS{match: "CATALOG", killAt: 1}
	case "mid-compact":
		// Die halfway through the compaction snapshot (CATALOG.tmp).
		fs = &killFS{match: "CATALOG.tmp", killAt: 1}
		compactEvery = 2
	case "mid-append-blob":
		// An append spliced onto stable's blob dies halfway through
		// writing the spliced data file (write 1 is its labels).
		fs = &killFS{match: "blobs", killAt: 2}
	case "mid-append-journal":
		// The spliced blob is committed, then the append dies halfway
		// through its journal record.
		fs = &killFS{match: "CATALOG", killAt: 1}
	default:
		t.Fatalf("unknown kill mode %q", mode)
	}
	s, err := Open(dir, Options{FS: fs, CompactEvery: compactEvery})
	if err != nil {
		t.Fatalf("victim open: %v", err)
	}
	if mode == "mid-compact" {
		// Re-commit the same content until the record churn trips
		// compaction; the kill lands inside the snapshot write.
		for i := 0; i < 10; i++ {
			if _, err := s.Put("stable", killStableMatrix(t)); err != nil {
				t.Fatalf("victim churn put: %v", err)
			}
		}
		t.Fatal("compaction never triggered the kill")
	}
	if strings.HasPrefix(mode, "mid-append") {
		e, ok := s.Get("stable")
		if !ok {
			t.Fatal("victim sees no stable dataset")
		}
		grown, err := matrix.ExtendBaskets(killStableMatrix(t), strings.NewReader("bread jam\nbutter scone c01\n"))
		if err != nil {
			t.Fatal(err)
		}
		s.Append("stable", e.Hash, grown)
		t.Fatal("victim survived the self-SIGKILL")
	}
	s.Put("victim", killVictimMatrix(t))
	t.Fatal("victim survived the self-SIGKILL")
}

// killStableMatrix is the pre-committed dataset whose catalog entry and
// mine output must survive every kill byte-for-byte.
func killStableMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&sb, "bread butter c%02d\n", i%9)
	}
	return mustBaskets(t, sb.String())
}

// mineBytes mines implications over m and renders them in the rule
// file format — the byte-identity probe for recovered datasets.
func mineBytes(t *testing.T, m *matrix.Matrix) []byte {
	t.Helper()
	rs, _ := core.DMCImp(m, core.FromPercent(75), core.Options{})
	var buf bytes.Buffer
	if err := rules.WriteImplications(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("stable dataset mined zero bytes; the identity check is vacuous")
	}
	return buf.Bytes()
}

// TestStoreKillRecover SIGKILLs the store mid-upload (blob write and
// journal append), mid-compaction, and mid-append of rows to the stable
// dataset (spliced blob write and journal append); on reopen of the
// same data directory the catalog lists exactly the committed datasets,
// a mine over a recovered dataset is byte-identical to its pre-kill
// output, and no *.tmp debris survives recovery.
func TestStoreKillRecover(t *testing.T) {
	for _, mode := range []string{"mid-blob", "mid-journal", "mid-compact", "mid-append-blob", "mid-append-journal"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{})
			stable := killStableMatrix(t)
			if _, err := s.Put("stable", stable); err != nil {
				t.Fatal(err)
			}
			preKill := mineBytes(t, stable)
			s.Close()

			cmd := exec.Command(os.Args[0], "-test.run", "TestHelperStoreKill$")
			cmd.Env = append(os.Environ(), killModeEnv+"="+mode, killDirEnv+"="+dir)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("victim exited cleanly:\n%s", out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ProcessState.ExitCode() != -1 {
				t.Fatalf("victim was not killed by a signal: %v\n%s", err, out)
			}

			r := openStore(t, dir, Options{})
			if r.Len() != 1 {
				t.Fatalf("recovered catalog has %d datasets, want exactly {stable}: %+v", r.Len(), r.List())
			}
			got, err := r.Load("stable")
			if err != nil {
				t.Fatalf("loading recovered dataset: %v", err)
			}
			if postKill := mineBytes(t, got); !bytes.Equal(preKill, postKill) {
				t.Fatalf("mine over recovered dataset differs from pre-kill output:\n-- pre --\n%s\n-- post --\n%s", preKill, postKill)
			}
			assertNoTmpDebris(t, dir)
			// The kill must not have stranded an unreferenced blob
			// either: GC at open leaves only stable's blob + labels.
			des, err := os.ReadDir(filepath.Join(dir, blobDirName))
			if err != nil {
				t.Fatal(err)
			}
			if len(des) > 2 {
				t.Fatalf("%d files in blobs/ after recovery, want <= 2", len(des))
			}
		})
	}
}
