package store_test

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"dmc/internal/gen"
	"dmc/internal/matrix"
	"dmc/internal/store"
)

// The store commit of one row append on the load benchmark's data
// shape: gen.Bench at scale 1/8 (131,072 rows × 512 columns), labeled
// like an uploaded basket file, grown by one 128-row basket batch drawn
// from the next seed.
var storeBench struct {
	once        sync.Once
	base, grown *matrix.Matrix
	err         error
}

func storeBenchData(b *testing.B) (base, grown *matrix.Matrix) {
	b.Helper()
	storeBench.once.Do(func() {
		labeled := func(seed int64) *matrix.Matrix {
			m := gen.Bench(gen.Config{Scale: 0.125, Seed: seed})
			labels := make([]string, m.NumCols())
			for c := range labels {
				labels[c] = fmt.Sprintf("i%d", c)
			}
			m.SetLabels(labels)
			return m
		}
		base, src := labeled(1), labeled(2)
		var batch bytes.Buffer
		for i := 0; i < 128; i++ {
			for j, c := range src.Row(i) {
				if j > 0 {
					batch.WriteByte(' ')
				}
				batch.WriteString(src.Label(c))
			}
			batch.WriteByte('\n')
		}
		storeBench.base = base
		storeBench.grown, storeBench.err = matrix.ExtendBaskets(base, &batch)
	})
	if storeBench.err != nil {
		b.Fatal(storeBench.err)
	}
	return storeBench.base, storeBench.grown
}

// benchCommit times commit of the grown matrix. Outside the timer each
// iteration re-commits the base, so every commit starts from the same
// live blob, and removes the previous iteration's grown blob, so every
// commit writes it anew as a real append does. Compaction is held off
// so it never lands inside the timer.
func benchCommit(b *testing.B, commit func(s *store.Store, baseHash string, grown *matrix.Matrix) (store.Entry, error)) {
	base, grown := storeBenchData(b)
	s, err := store.Open(b.TempDir(), store.Options{CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var last string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := s.Put("bench", base)
		if err != nil {
			b.Fatal(err)
		}
		if last != "" {
			os.Remove(last)
			os.Remove(last + ".labels")
		}
		b.StartTimer()
		g, err := commit(s, e.Hash, grown)
		if err != nil {
			b.Fatal(err)
		}
		last = g.Path
	}
}

func BenchmarkStorePut(b *testing.B) {
	benchCommit(b, func(s *store.Store, _ string, grown *matrix.Matrix) (store.Entry, error) {
		return s.Put("bench", grown)
	})
}

func BenchmarkStoreAppend(b *testing.B) {
	benchCommit(b, func(s *store.Store, baseHash string, grown *matrix.Matrix) (store.Entry, error) {
		return s.Append("bench", baseHash, grown)
	})
}
