package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// TestCheckpointResumeParity: a checkpointed mine followed by a resumed
// mine of the same input yields the identical rule set, skips the
// partition pass entirely (no new manifest commit), and works across
// worker counts.
func TestCheckpointResumeParity(t *testing.T) {
	m := streamRandomMatrix(21, 400, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	want, _ := core.DMCImp(m, core.FromPercent(75), core.Options{})

	ckpt := t.TempDir()
	cfg := Config{CheckpointDir: ckpt, Workers: 2}
	first, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(first, want); d != "" {
		t.Fatalf("checkpointed mine diverged:\n%s", d)
	}
	if _, err := os.Stat(filepath.Join(ckpt, manifestName)); err != nil {
		t.Fatalf("no manifest after checkpointed mine: %v", err)
	}

	commits := metricCheckpointWrites.Value()
	cfg.Resume = true
	cfg.Workers = 8
	resumed, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(resumed, want); d != "" {
		t.Fatalf("resumed mine diverged:\n%s", d)
	}
	if got := metricCheckpointWrites.Value(); got != commits {
		t.Fatalf("resume re-partitioned: %d new manifest commits", got-commits)
	}
}

// TestCheckpointInvalidatedByInputChange: a resume against a modified
// input must refuse the stale checkpoint and re-partition.
func TestCheckpointInvalidatedByInputChange(t *testing.T) {
	m1 := streamRandomMatrix(22, 300, 24)
	m2 := streamRandomMatrix(23, 280, 24)
	dir := t.TempDir()
	path := filepath.Join(dir, "m"+matrix.ExtBinary)
	if err := matrix.Save(path, m1); err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	if _, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt}); err != nil {
		t.Fatal(err)
	}

	if err := matrix.Save(path, m2); err != nil {
		t.Fatal(err)
	}
	// Defeat modtime granularity: make the rewrite unambiguous.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	want, _ := core.DMCImp(m2, core.FromPercent(75), core.Options{})
	commits := metricCheckpointWrites.Value()
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("stale checkpoint leaked into the result:\n%s", d)
	}
	if metricCheckpointWrites.Value() != commits+1 {
		t.Fatal("changed input did not force a re-partition")
	}
}

// TestCheckpointCrashLeavesNoManifest: killing the manifest commit
// leaves the directory without a trusted checkpoint; the next resume
// run partitions afresh and still mines correctly.
func TestCheckpointCrashLeavesNoManifest(t *testing.T) {
	m := streamRandomMatrix(24, 300, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	ckpt := t.TempDir()

	inj := fault.NewInjector(fault.Scenario{Name: "kill-manifest", FailSyncAt: 1, PathContains: manifestName})
	_, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, FS: inj})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("manifest commit should have failed, got %v", err)
	}
	if _, serr := os.Stat(filepath.Join(ckpt, manifestName)); !os.IsNotExist(serr) {
		t.Fatal("a failed commit left a manifest behind")
	}

	want, _ := core.DMCImp(m, core.FromPercent(75), core.Options{})
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("post-crash re-partition diverged:\n%s", d)
	}
}

// TestCheckpointSweepsStaleTmp: a crashed writer's *.tmp litter is
// removed when the next partition reuses the directory.
func TestCheckpointSweepsStaleTmp(t *testing.T) {
	m := streamRandomMatrix(25, 120, 16)
	path := writeTemp(t, m, matrix.ExtBinary)
	ckpt := t.TempDir()
	stale := filepath.Join(ckpt, "bucket-99.rows.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := PartitionWith(path, Config{CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, serr := os.Stat(stale); !os.IsNotExist(serr) {
		t.Fatal("stale tmp survived a fresh partition")
	}
}

// TestCheckpointSegmentDamageForcesRepartition: a segment truncated
// after commit fails manifest validation, so resume re-partitions
// instead of mining short.
func TestCheckpointSegmentDamageForcesRepartition(t *testing.T) {
	m := streamRandomMatrix(26, 300, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	ckpt := t.TempDir()
	p, err := PartitionWith(path, Config{CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	seg := p.buckets[0].path
	p.Close()
	if err := os.Truncate(seg, 1); err != nil {
		t.Fatal(err)
	}

	want, _ := core.DMCImp(m, core.FromPercent(75), core.Options{})
	commits := metricCheckpointWrites.Value()
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("damaged checkpoint leaked into the result:\n%s", d)
	}
	if metricCheckpointWrites.Value() != commits+1 {
		t.Fatal("damaged segment did not force a re-partition")
	}
}

// TestCheckpointRepartitionSweepsSegments: re-partitioning a reused
// checkpoint directory at another worker count writes segments under
// other names (bucket-NN-wKK.rows vs bucket-NN.rows). The old set must
// go, leaving exactly the manifest and the segments it names.
func TestCheckpointRepartitionSweepsSegments(t *testing.T) {
	m1 := streamRandomMatrix(27, 300, 24)
	m2 := streamRandomMatrix(28, 280, 24)
	path := filepath.Join(t.TempDir(), "m"+matrix.ExtBinary)
	if err := matrix.Save(path, m1); err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	if _, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if old, _ := filepath.Glob(filepath.Join(ckpt, "bucket-*-w*.rows")); len(old) == 0 {
		t.Fatal("a two-worker partition wrote no per-worker segments")
	}

	if err := matrix.Save(path, m2); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	want, _ := core.DMCImp(m2, core.FromPercent(75), core.Options{})
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("re-partitioned mine diverged:\n%s", d)
	}

	data, err := os.ReadFile(filepath.Join(ckpt, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{manifestName: true}
	for _, seg := range mf.Segments {
		keep[seg.File] = true
	}
	ents, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !keep[e.Name()] {
			t.Errorf("re-partition left %s behind", e.Name())
		}
		delete(keep, e.Name())
	}
	if len(keep) != 0 {
		t.Errorf("checkpoint is missing %v", keep)
	}
}

// TestCheckpointV1ManifestRepartitions: a version-1 manifest (written
// before unframed spills were dropped; its segments each carried a
// "legacy" flag) is not trusted. Resume partitions afresh: one new
// manifest commit, no OnResume, exact rules.
func TestCheckpointV1ManifestRepartitions(t *testing.T) {
	m := streamRandomMatrix(29, 300, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	ckpt := t.TempDir()
	p, err := PartitionWith(path, Config{CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	mpath := filepath.Join(ckpt, manifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	// UseNumber keeps the nanosecond input mtime exact; as a float64 it
	// would no longer match the input, and the test would pass without
	// reaching the version check.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var mf map[string]any
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	mf["version"] = 1
	for _, seg := range mf["segments"].([]any) {
		seg.(map[string]any)["legacy"] = false
	}
	if data, err = json.MarshalIndent(mf, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	want, _ := core.DMCImp(m, core.FromPercent(75), core.Options{})
	commits := metricCheckpointWrites.Value()
	resumed := false
	cfg := Config{CheckpointDir: ckpt, Resume: true, OnResume: func() { resumed = true }}
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("version-1 checkpoint leaked into the result:\n%s", d)
	}
	if resumed {
		t.Error("OnResume fired for a version-1 manifest")
	}
	if n := metricCheckpointWrites.Value() - commits; n != 1 {
		t.Fatalf("version-1 manifest: %d manifest commits, want 1", n)
	}
}

// renameOnCreate is a spill FS that, at its first Create, renames from
// over to: a file replaced under its path while the partition reads it.
type renameOnCreate struct {
	fault.FS
	from, to string
	once     sync.Once
	err      error
}

func (f *renameOnCreate) Create(name string) (fault.File, error) {
	f.once.Do(func() { f.err = os.Rename(f.from, f.to) })
	return f.FS.Create(name)
}

// TestCheckpointInputReplacedMidPartition: a file renamed over the
// input while the partition reads it (same size, same mtime, another
// inode) must not get the old content's segments committed under its
// identity; the resume partitions the new content again.
func TestCheckpointInputReplacedMidPartition(t *testing.T) {
	m1 := streamRandomMatrix(26, 300, 24)
	rows := make([][]matrix.Col, m1.NumRows())
	for i := range rows {
		for _, c := range m1.Row(i) {
			rows[i] = append(rows[i], c^1) // same digit count: same text size
		}
		slices.Sort(rows[i])
	}
	m2 := matrix.FromRows(m1.NumCols(), rows)
	dir := t.TempDir()
	path := filepath.Join(dir, "m"+matrix.ExtText)
	next := filepath.Join(dir, "next"+matrix.ExtText)
	for _, f := range []struct {
		path string
		m    *matrix.Matrix
	}{{path, m1}, {next, m2}} {
		if err := matrix.Save(f.path, f.m); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range []string{path, next} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := Identify(path)
	b, _ := Identify(next)
	if a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) {
		t.Fatalf("replacement differs in size or mtime: %d/%v vs %d/%v", a.Size(), a.ModTime(), b.Size(), b.ModTime())
	}

	ckpt := t.TempDir()
	hook := &renameOnCreate{FS: fault.OS, from: next, to: path}
	got, _, err := MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, Config{CheckpointDir: ckpt, FS: hook})
	if err != nil || hook.err != nil {
		t.Fatalf("mine over the replaced input: %v (rename: %v)", err, hook.err)
	}
	want1, _ := core.DMCImp(m1, core.FromPercent(75), core.Options{})
	if d := rules.DiffImplications(got, want1); d != "" {
		t.Fatalf("the run did not mine what it read:\n%s", d)
	}

	resumed := false
	cfg := Config{CheckpointDir: ckpt, Resume: true, OnResume: func() { resumed = true }}
	got, _, err = MineImplicationsCfg(path, core.FromPercent(75), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("resume trusted segments of the replaced file")
	}
	want2, _ := core.DMCImp(m2, core.FromPercent(75), core.Options{})
	if d := rules.DiffImplications(got, want2); d != "" {
		t.Fatalf("resume mined stale segments:\n%s", d)
	}
}
