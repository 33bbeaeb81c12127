package store

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"dmc/internal/fault"
	"dmc/internal/matrix"
)

// appendFixture is a labeled base and the base grown by rows that mint
// two new columns.
func appendFixture(t *testing.T) (base, grown *matrix.Matrix) {
	t.Helper()
	base = mustBaskets(t, "bread butter\nbread butter jam\nbread\ntea\n")
	grown, err := matrix.ExtendBaskets(base, strings.NewReader("bread scone\nclotted cream tea\n"))
	if err != nil {
		t.Fatal(err)
	}
	return base, grown
}

// assertCommitted checks that e is m's entry and that its blob and
// labels on disk are exactly m's encoding.
func assertCommitted(t *testing.T, e Entry, m *matrix.Matrix) {
	t.Helper()
	want, err := matrix.EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ContentHash(m)
	if err != nil {
		t.Fatal(err)
	}
	if e.Hash != hash || e.Rows != m.NumRows() || e.Cols != m.NumCols() || e.Ones != m.NumOnes() || e.Size != int64(len(want)) {
		t.Fatalf("entry %+v, want hash %s, %dx%d, %d ones, %d bytes", e, hash, m.NumRows(), m.NumCols(), m.NumOnes(), len(want))
	}
	got, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("blob %s holds %d bytes that are not EncodeBinary's %d", e.Path, len(got), len(want))
	}
	if m.Labels() != nil {
		wantLabels, err := matrix.EncodeLabels(m.Labels())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(e.Path + ".labels"); err != nil || !bytes.Equal(got, wantLabels) {
			t.Fatalf("labels companion = %q (%v), want %q", got, err, wantLabels)
		}
	}
}

// TestAppendChainMatchesPut: a chain of appends, each minting columns
// and the rows' header varint crossing 127→128, commits at every step
// the blob, address and entry a Put of the grown matrix would, and a
// reopened store holds the last of them.
func TestAppendChainMatchesPut(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	var sb strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&sb, "anchor c%02d\n", i%13)
	}
	m := mustBaskets(t, sb.String())
	e, err := s.Put("d", m)
	if err != nil {
		t.Fatal(err)
	}
	mismatches := metricBlobMismatches.Value()
	for step := 0; step < 3; step++ {
		sb.Reset()
		for i := 0; i < 5; i++ {
			fmt.Fprintf(&sb, "anchor n%d-%d c%02d\n", step, i, i)
		}
		grown, err := matrix.ExtendBaskets(m, strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if e, err = s.Append("d", e.Hash, grown); err != nil {
			t.Fatalf("append %d: %v", step, err)
		}
		assertCommitted(t, e, grown)
		m = grown
	}
	if d := metricBlobMismatches.Value() - mismatches; d != 0 {
		t.Fatalf("healthy appends counted %d blob mismatches", d)
	}
	s.Close()
	r := openStore(t, dir, Options{})
	got, ok := r.Get("d")
	if !ok || got != e {
		t.Fatalf("reopened entry = %+v, want %+v", got, e)
	}
	back, err := r.Load("d")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mineBytes(t, back), mineBytes(t, m); !bytes.Equal(a, b) {
		t.Fatal("reloaded dataset mines differently from the appended one")
	}
}

// TestAppendTakesSplicePath: a healthy Append builds on the stored blob
// rather than re-encoding. The probe breaks Append's contract on
// purpose — the matrix passed shares no rows with the base — so the two
// paths commit different bytes: a splice keeps the base's row records
// and adds only the rows past the base's count.
func TestAppendTakesSplicePath(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	base := matrix.FromRows(3, [][]matrix.Col{{0, 1}, {1, 2}})
	e, err := s.Put("d", base)
	if err != nil {
		t.Fatal(err)
	}
	liar := matrix.FromRows(4, [][]matrix.Col{{3}, {3}, {0, 3}})
	got, err := s.Append("d", e.Hash, liar)
	if err != nil {
		t.Fatal(err)
	}
	spliced := matrix.FromRows(4, [][]matrix.Col{{0, 1}, {1, 2}, {0, 3}})
	want, _ := matrix.EncodeBinary(spliced)
	if blob, err := os.ReadFile(got.Path); err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("committed blob = %x (%v), want the splice %x", blob, err, want)
	}
	if got.Ones != spliced.NumOnes() {
		t.Fatalf("entry ones = %d, want %d: the base record's plus the new row's", got.Ones, spliced.NumOnes())
	}
}

// TestAppendFallsBackToEncode: whenever the stored blob cannot be
// trusted as the base — damaged, missing, relabeled, or not at the
// caller's address at all — Append commits exactly EncodeBinary(grown).
// Damage counts on dmc_store_blob_mismatches_total; a live entry at
// another address (a racing Put) and a missing entry do not.
func TestAppendFallsBackToEncode(t *testing.T) {
	cases := []struct {
		name     string
		damage   func(t *testing.T, s *Store, e Entry) string // returns the base hash to pass
		mismatch bool
	}{
		{name: "flipped-byte", mismatch: true, damage: func(t *testing.T, s *Store, e Entry) string {
			editFile(t, e.Path, func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
			return e.Hash
		}},
		{name: "truncated-blob", mismatch: true, damage: func(t *testing.T, s *Store, e Entry) string {
			editFile(t, e.Path, func(b []byte) []byte { return b[:len(b)-1] })
			return e.Hash
		}},
		{name: "deleted-blob", mismatch: true, damage: func(t *testing.T, s *Store, e Entry) string {
			if err := os.Remove(e.Path); err != nil {
				t.Fatal(err)
			}
			return e.Hash
		}},
		{name: "changed-labels", mismatch: true, damage: func(t *testing.T, s *Store, e Entry) string {
			editFile(t, e.Path+".labels", func(b []byte) []byte { return bytes.Replace(b, []byte("tea"), []byte("tee"), 1) })
			return e.Hash
		}},
		{name: "other-base-hash", damage: func(t *testing.T, s *Store, e Entry) string {
			// A racing Put replaced the live entry after the caller read
			// its base: splicing onto it would graft grown's rows onto
			// the wrong dataset.
			if _, err := s.Put("d", mustBaskets(t, "x y\nx z\ny z\nz\nx\n")); err != nil {
				t.Fatal(err)
			}
			return e.Hash
		}},
		{name: "no-entry", damage: func(t *testing.T, s *Store, e Entry) string {
			if err := s.Delete("d"); err != nil {
				t.Fatal(err)
			}
			return e.Hash
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{})
			base, grown := appendFixture(t)
			e, err := s.Put("d", base)
			if err != nil {
				t.Fatal(err)
			}
			baseHash := tc.damage(t, s, e)
			before := metricBlobMismatches.Value()
			got, err := s.Append("d", baseHash, grown)
			if err != nil {
				t.Fatal(err)
			}
			assertCommitted(t, got, grown)
			wantCount := int64(0)
			if tc.mismatch {
				wantCount = 1
			}
			if d := metricBlobMismatches.Value() - before; d != wantCount {
				t.Fatalf("dmc_store_blob_mismatches_total moved by %d, want %d", d, wantCount)
			}
			s.Close()
			r := openStore(t, dir, Options{})
			if e, ok := r.Get("d"); !ok || e != got {
				t.Fatalf("reopened entry = %+v, want %+v", e, got)
			}
		})
	}
}

// editFile rewrites path with edit applied to its bytes.
func editFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFaultSweep fails every open, read, write and sync of one
// healthy Append in turn, one cell per operation. A failed read of the
// stored blob only costs the splice; any other failure fails the
// Append. After every cell the store, and a reopen of it on a healthy
// disk, hold either the base or the grown dataset — the grown one
// whenever Append reported success — never a third state, and no tmp
// debris. Short reads change nothing: same bytes, still a splice.
func TestAppendFaultSweep(t *testing.T) {
	base, grown := appendFixture(t)
	baseHash, err := ContentHash(base)
	if err != nil {
		t.Fatal(err)
	}
	grownHash, err := ContentHash(grown)
	if err != nil {
		t.Fatal(err)
	}
	// run commits the base on a healthy disk, then reopens the store
	// under sc and appends. It returns the injector's counts (reads,
	// writes, opens, syncs) after the open and after the append, and
	// the append's error.
	run := func(t *testing.T, sc fault.Scenario) (dir string, atOpen, atEnd [4]int64, err error) {
		dir = t.TempDir()
		s := openStore(t, dir, Options{})
		if _, err := s.Put("d", base); err != nil {
			t.Fatal(err)
		}
		s.Close()
		in := fault.NewInjector(sc)
		f, oerr := Open(dir, Options{FS: in})
		if oerr != nil {
			t.Fatalf("open under %+v: %v", sc, oerr)
		}
		defer f.Close()
		r, w, o, y := in.Counts()
		atOpen = [4]int64{r, w, o, y}
		_, err = f.Append("d", baseHash, grown)
		r, w, o, y = in.Counts()
		atEnd = [4]int64{r, w, o, y}
		// The handle that saw the fault holds the state Append reported.
		want := baseHash
		if err == nil {
			want = grownHash
		}
		if e, ok := f.Get("d"); !ok || e.Hash != want || f.Len() != 1 {
			t.Fatalf("after Append (err %v): entry %+v, want the one at %s", err, e, want)
		}
		return dir, atOpen, atEnd, err
	}
	// check reopens dir on a healthy disk: base or grown, and grown if
	// the append succeeded.
	check := func(t *testing.T, dir string, appendErr error) {
		t.Helper()
		r := openStore(t, dir, Options{})
		e, ok := r.Get("d")
		switch {
		case !ok || r.Len() != 1:
			t.Fatalf("recovered catalog %+v, want exactly d", r.List())
		case e.Hash == grownHash:
			assertCommitted(t, e, grown)
		case e.Hash == baseHash && appendErr != nil:
			assertCommitted(t, e, base)
		default:
			t.Fatalf("recovered d = %+v after Append err %v: neither base %s nor grown %s", e, appendErr, baseHash, grownHash)
		}
		assertNoTmpDebris(t, dir)
	}

	_, atOpen, atEnd, err := run(t, fault.Scenario{})
	if err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	ops := []string{"read", "write", "open", "sync"} // fault.Injector.Counts order
	for k, op := range ops {
		if atEnd[k] == atOpen[k] {
			t.Fatalf("a healthy Append did no %s", op)
		}
		for at := atOpen[k] + 1; at <= atEnd[k]; at++ {
			t.Run(fmt.Sprintf("%s-%d", op, at-atOpen[k]), func(t *testing.T) {
				var sc fault.Scenario
				switch op {
				case "open":
					sc.FailOpenAt = at
				case "read":
					sc.FailReadAt = at
				case "write":
					sc.FailWriteAt = at
				case "sync":
					sc.FailSyncAt = at
				}
				before := metricBlobMismatches.Value()
				dir, _, _, err := run(t, sc)
				if op == "read" && err != nil {
					t.Fatalf("a failed read of the stored blob failed the append: %v", err)
				}
				if op == "read" && metricBlobMismatches.Value() == before {
					t.Fatal("a failed read of the stored blob was not counted")
				}
				check(t, dir, err)
			})
		}
	}
	t.Run("short-reads", func(t *testing.T) {
		before := metricBlobMismatches.Value()
		dir, _, _, err := run(t, fault.Scenario{ShortReadEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if metricBlobMismatches.Value() != before {
			t.Fatal("short reads made the stored blob fail its address")
		}
		check(t, dir, nil)
	})
}
