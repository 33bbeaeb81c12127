package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// TestStreamShardParity is the fleet decomposition over the disk path:
// mining a file with a column-shard restriction must return exactly the
// full streamed mine's rules whose owner falls in the shard, and the
// union over a disjoint covering set of shards must rebuild the full
// set — for both families, across worker fan-outs. This is what lets a
// fleet worker serve its shard from a streamed (larger-than-memory)
// replica.
func TestStreamShardParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomMatrix(rng, 250, 30)
	th := core.FromPercent(75)
	path := writeTemp(t, m, matrix.ExtBinary)

	wantImp, _ := core.DMCImp(m, th, core.Options{})
	wantSim, _ := core.DMCSim(m, th, core.Options{})

	cuts := []core.ShardRange{{Lo: 0, Hi: 7}, {Lo: 7, Hi: 8}, {Lo: 8, Hi: 21}, {Lo: 21, Hi: 30}}
	for _, cfg := range []Config{{Workers: 1}, {Workers: 4, frameRows: 32}} {
		t.Run(fmt.Sprintf("w%d", cfg.Workers), func(t *testing.T) {
			var gotImp []rules.Implication
			var gotSim []rules.Similarity
			for i := range cuts {
				opts := core.Options{Shard: &cuts[i]}
				imp, _, err := MineImplicationsCfg(path, th, opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range imp {
					if int(r.From) < cuts[i].Lo || int(r.From) >= cuts[i].Hi {
						t.Fatalf("shard %v leaked rule %v", cuts[i], r)
					}
				}
				gotImp = append(gotImp, imp...)
				sim, _, err := MineSimilaritiesCfg(path, th, opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotSim = append(gotSim, sim...)
			}
			if d := rules.DiffImplications(gotImp, wantImp); d != "" {
				t.Fatalf("imp shard union mismatch:\n%s", d)
			}
			if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
				t.Fatalf("sim shard union mismatch:\n%s", d)
			}
		})
	}
}
