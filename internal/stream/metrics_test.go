package stream

import (
	"math/rand"
	"testing"

	"dmc/internal/core"
	"dmc/internal/matrix"
)

// TestSpillAndPassCounters checks that partitioning and mining feed the
// process-wide registry. Counters are global and monotonic, so the
// assertions are on deltas.
func TestSpillAndPassCounters(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(7)), 80, 16)
	path := writeTemp(t, m, matrix.ExtBinary)

	parts0 := metricPartitions.Value()
	rows0 := metricSpilledRows.Value()
	bytes0 := metricSpilledBytes.Value()
	buckets0 := metricSpillBuckets.Value()
	passes0 := metricPasses.Value()

	rs, _, err := MineImplicationsCfg(path, core.FromPercent(80), core.Options{}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules mined")
	}

	if got := metricPartitions.Value() - parts0; got != 1 {
		t.Fatalf("partitions delta = %d, want 1", got)
	}
	if got := metricSpilledRows.Value() - rows0; got != int64(m.NumRows()) {
		t.Fatalf("spilled rows delta = %d, want %d", got, m.NumRows())
	}
	if got := metricSpilledBytes.Value() - bytes0; got <= 0 {
		t.Fatalf("spilled bytes delta = %d, want > 0", got)
	}
	if got := metricSpillBuckets.Value() - buckets0; got <= 0 {
		t.Fatalf("spill buckets delta = %d, want > 0", got)
	}
	// The imp pipeline replays the buckets once per phase: 100% phase
	// plus the <100% phase.
	if got := metricPasses.Value() - passes0; got != 2 {
		t.Fatalf("passes delta = %d, want 2", got)
	}
}
