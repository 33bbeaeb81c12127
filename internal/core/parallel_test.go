package core

import (
	"math/rand"
	"testing"

	"dmc/internal/paperdata"
	"dmc/internal/rules"
)

// The parallel pipelines must produce exactly the serial result for any
// worker count, across thresholds and bitmap configurations.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 30+rng.Intn(60), 8+rng.Intn(20)
		mx := randomMatrix(rng, n, m)
		for _, pct := range []int{100, 85, 70} {
			th := FromPercent(pct)
			wantImp := NaiveImplications(mx, th)
			wantSim := NaiveSimilarities(mx, th)
			for _, workers := range []int{1, 2, 3, 7, m + 3} {
				for name, opts := range map[string]Options{
					"default":      {},
					"force bitmap": forceBitmap(n),
				} {
					gotImp, _ := DMCImpParallel(mx, th, opts, workers)
					if d := rules.DiffImplications(gotImp, wantImp); d != "" {
						t.Fatalf("imp seed %d %d%% workers %d %s:\n%s", seed, pct, workers, name, d)
					}
					gotSim, _ := DMCSimParallel(mx, th, opts, workers)
					if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
						t.Fatalf("sim seed %d %d%% workers %d %s:\n%s", seed, pct, workers, name, d)
					}
				}
			}
		}
	}
}

func TestParallelFig2(t *testing.T) {
	m := paperdata.Fig2()
	want := []rules.Implication{
		{From: 0, To: 1, Hits: 4, Ones: 5},
		{From: 2, To: 4, Hits: 4, Ones: 5},
	}
	for _, workers := range []int{0, 1, 2, 4} { // 0 means auto (GOMAXPROCS)
		got, st := DMCImpParallel(m, FromPercent(80), Options{}, workers)
		if d := rules.DiffImplications(got, want); d != "" {
			t.Fatalf("workers %d:\n%s", workers, d)
		}
		if st.NumRules != 2 {
			t.Errorf("workers %d: NumRules = %d", workers, st.NumRules)
		}
	}
}

func TestParallelStatsAggregated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mx := randomMatrix(rng, 80, 20)
	_, serial := DMCImp(mx, FromPercent(80), Options{})
	_, par := DMCImpParallel(mx, FromPercent(80), Options{}, 4)
	// Workers collectively do the same candidate work as the serial
	// pipeline: the per-column lists are identical, just spread out.
	if par.CandidatesAdded != serial.CandidatesAdded {
		t.Errorf("CandidatesAdded: parallel %d, serial %d", par.CandidatesAdded, serial.CandidatesAdded)
	}
	if par.CandidatesDeleted != serial.CandidatesDeleted {
		t.Errorf("CandidatesDeleted: parallel %d, serial %d", par.CandidatesDeleted, serial.CandidatesDeleted)
	}
	// Summed worker peaks can exceed the serial peak (they coexist) but
	// never undershoot a single worker's share of it.
	if par.PeakCounterBytes <= 0 {
		t.Error("parallel peak not recorded")
	}
	if par.Total <= 0 || par.PhaseLT <= 0 {
		t.Errorf("durations missing: %+v", par)
	}
}

func TestOwnershipPartition(t *testing.T) {
	ones := []int{9, 3, 7, 7, 1, 12, 0, 5, 2, 4}
	owned := ownership(ones, 3)
	if len(owned) != 3 {
		t.Fatalf("%d masks", len(owned))
	}
	for c := range ones {
		count := 0
		for w := range owned {
			if owned[w][c] == 1 {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("column %d owned by %d workers", c, count)
		}
	}
	if ownership(ones, 1)[0] != nil {
		t.Error("single worker should use the nil fast path")
	}
}

// The snake walk must spread the dense columns: the per-worker sums of
// ones may differ by at most the largest single column's count.
func TestOwnershipSnakeBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		mcols := 5 + rng.Intn(60)
		workers := 2 + rng.Intn(7)
		ones := make([]int, mcols)
		maxOnes := 0
		for c := range ones {
			ones[c] = rng.Intn(1000)
			if ones[c] > maxOnes {
				maxOnes = ones[c]
			}
		}
		owned := ownership(ones, workers)
		loads := make([]int, workers)
		for w := range owned {
			for c, mine := range owned[w] {
				if mine == 1 {
					loads[w] += ones[c]
				}
			}
		}
		lo, hi := loads[0], loads[0]
		for _, l := range loads[1:] {
			lo = min(lo, l)
			hi = max(hi, l)
		}
		if hi-lo > maxOnes {
			t.Fatalf("trial %d (m=%d w=%d): load spread %d exceeds max column %d (loads %v)",
				trial, mcols, workers, hi-lo, maxOnes, loads)
		}
	}
}

// TestParallelParityWithSerial pins the parallel pipelines to the
// serial ones rule-for-rule and stat-for-stat where stats must agree
// (rule counts). It complements TestParallelMatchesSerial (which
// compares against the naive reference): this parity must hold for any
// worker count — including more workers than columns — under default
// options, a forced bitmap switch mid-scan, and support pruning. The CI
// race job runs it with -race, which is what shakes out unsynchronized
// access to the shared tail bitmaps.
func TestParallelParityWithSerial(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 40+rng.Intn(80), 10+rng.Intn(16)
		mx := randomMatrix(rng, n, m)
		for _, pct := range []int{100, 90, 75} {
			th := FromPercent(pct)
			for name, opts := range map[string]Options{
				"default":      {},
				"force bitmap": forceBitmap(n),
				"min support":  {MinSupport: 3},
			} {
				wantImp, impSt := DMCImp(mx, th, opts)
				wantSim, simSt := DMCSim(mx, th, opts)
				for _, workers := range []int{1, 2, 3, 8} {
					gotImp, gotImpSt := DMCImpParallel(mx, th, opts, workers)
					if d := rules.DiffImplications(gotImp, wantImp); d != "" {
						t.Fatalf("imp seed %d %d%% workers %d %s:\n%s", seed, pct, workers, name, d)
					}
					if gotImpSt.NumRules != impSt.NumRules {
						t.Fatalf("imp seed %d %d%% workers %d %s: NumRules %d != serial %d",
							seed, pct, workers, name, gotImpSt.NumRules, impSt.NumRules)
					}
					gotSim, gotSimSt := DMCSimParallel(mx, th, opts, workers)
					if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
						t.Fatalf("sim seed %d %d%% workers %d %s:\n%s", seed, pct, workers, name, d)
					}
					if gotSimSt.NumRules != simSt.NumRules {
						t.Fatalf("sim seed %d %d%% workers %d %s: NumRules %d != serial %d",
							seed, pct, workers, name, gotSimSt.NumRules, simSt.NumRules)
					}
				}
			}
		}
	}
}

// The shared tail build must be charged exactly once per switch
// position: TailBitmapBytes may not grow with the worker count.
func TestParallelTailBytesShared(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mx := randomMatrix(rng, 120, 24)
	opts := forceBitmap(120)
	_, serial := DMCImp(mx, FromPercent(80), opts)
	if serial.TailBitmapBytes <= 0 {
		t.Fatal("forced bitmap run recorded no tail bytes")
	}
	for _, workers := range []int{2, 4, 8} {
		_, par := DMCImpParallel(mx, FromPercent(80), opts, workers)
		if par.TailBitmapBytes > serial.TailBitmapBytes {
			t.Errorf("workers %d: TailBitmapBytes %d exceeds serial %d (tail not shared)",
				workers, par.TailBitmapBytes, serial.TailBitmapBytes)
		}
	}
}
