package core

import (
	"math/rand"
	"slices"
	"testing"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// randomShardCuts splits [0, mcols) into k disjoint covering ranges at
// random (uneven) cut points.
func randomShardCuts(rng *rand.Rand, mcols, k int) []ShardRange {
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+rng.Intn(mcols-1)] = true
	}
	bounds := []int{0}
	for c := 1; c < mcols; c++ {
		if cuts[c] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, mcols)
	out := make([]ShardRange, 0, k)
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, ShardRange{Lo: bounds[i], Hi: bounds[i+1]})
	}
	return out
}

// The fleet's correctness contract: the union of the shard mines over
// any disjoint covering column partition is exactly the unsharded rule
// set — for both rule families, serial and parallel engines, at and
// below the 100% threshold.
func TestShardUnionMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 30+rng.Intn(60), 8+rng.Intn(20)
		mx := randomMatrix(rng, n, m)
		for _, pct := range []int{100, 85, 70} {
			th := FromPercent(pct)
			wantImp := NaiveImplications(mx, th)
			wantSim := NaiveSimilarities(mx, th)
			for _, k := range []int{2, 4} {
				shards := randomShardCuts(rng, m, k)
				for _, workers := range []int{1, 3} {
					var gotImp []rules.Implication
					var gotSim []rules.Similarity
					for i := range shards {
						opts := Options{Shard: &shards[i]}
						if workers == 1 {
							imp, _ := DMCImp(mx, th, opts)
							sim, _ := DMCSim(mx, th, opts)
							gotImp = append(gotImp, imp...)
							gotSim = append(gotSim, sim...)
						} else {
							imp, _ := DMCImpParallel(mx, th, opts, workers)
							sim, _ := DMCSimParallel(mx, th, opts, workers)
							gotImp = append(gotImp, imp...)
							gotSim = append(gotSim, sim...)
						}
					}
					if d := rules.DiffImplications(gotImp, wantImp); d != "" {
						t.Fatalf("imp seed %d %d%% shards %d workers %d:\n%s", seed, pct, k, workers, d)
					}
					if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
						t.Fatalf("sim seed %d %d%% shards %d workers %d:\n%s", seed, pct, k, workers, d)
					}
				}
			}
		}
	}
}

// A shard whose range covers every column must behave exactly like an
// unsharded mine (including the nil-mask fast path).
func TestShardFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mx := randomMatrix(rng, 60, 12)
	th := FromPercent(80)
	full := ShardRange{Lo: 0, Hi: mx.NumCols()}
	if full.mask(mx.NumCols()) != nil {
		t.Error("full-range mask should be nil (no per-row ownership check)")
	}
	want, _ := DMCImp(mx, th, Options{})
	got, _ := DMCImp(mx, th, Options{Shard: &full})
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("full-range shard diverges:\n%s", d)
	}
}

func TestShardValidate(t *testing.T) {
	cases := []struct {
		r  ShardRange
		ok bool
	}{
		{ShardRange{0, 10}, true},
		{ShardRange{3, 4}, true},
		{ShardRange{9, 10}, true},
		{ShardRange{-1, 5}, false},
		{ShardRange{0, 11}, false},
		{ShardRange{5, 5}, false},
		{ShardRange{7, 3}, false},
	}
	for _, c := range cases {
		if err := c.r.Validate(10); (err == nil) != c.ok {
			t.Errorf("Validate(%+v, 10): err=%v, want ok=%v", c.r, err, c.ok)
		}
	}
}

// shardOwnership must assign every in-shard column to exactly one
// worker and no out-of-shard column to any.
func TestShardOwnershipPartition(t *testing.T) {
	ones := []int{9, 3, 7, 7, 1, 12, 0, 5, 2, 4}
	shard := &ShardRange{Lo: 2, Hi: 8}
	owned := shardOwnership(ones, 3, shard)
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
		want := 0
		if c >= shard.Lo && c < shard.Hi {
			want = 1
		}
		if count != want {
			t.Fatalf("column %d owned by %d workers, want %d", c, count, want)
		}
	}
	single := shardOwnership(ones, 1, shard)
	if len(single) != 1 || single[0] == nil {
		t.Fatal("single sharded worker should get the shard mask itself")
	}
}

// colMask.cols must return exactly the masked columns of each row, in
// row order, whatever rows came before it in the same buffer, and
// never write to the row it reads; a nil mask returns the row itself.
func TestColMaskCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const mcols = 40
	for trial := 0; trial < 50; trial++ {
		mask := make(colMask, mcols)
		for c := range mask {
			mask[c] = uint8(rng.Intn(2))
		}
		var buf []matrix.Col
		for r := 0; r < 20; r++ {
			var row []matrix.Col
			for c := 0; c < mcols; c++ {
				if rng.Intn(4) == 0 {
					row = append(row, matrix.Col(c))
				}
			}
			orig := slices.Clone(row)
			var want []matrix.Col
			for _, c := range row {
				if mask.has(int(c)) {
					want = append(want, c)
				}
			}
			if got := mask.cols(row, &buf); !slices.Equal(got, want) {
				t.Fatalf("trial %d row %d: cols(%v) = %v, want %v", trial, r, row, got, want)
			}
			if !slices.Equal(row, orig) {
				t.Fatalf("trial %d row %d: cols wrote to its row", trial, r)
			}
			if len(row) > 0 {
				if got := colMask(nil).cols(row, &buf); &got[0] != &row[0] || len(got) != len(row) {
					t.Fatalf("trial %d row %d: a nil mask copied the row", trial, r)
				}
			}
		}
	}
}
