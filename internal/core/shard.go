package core

import (
	"fmt"
	"sort"
)

// ShardRange restricts rule ownership to the half-open column range
// [Lo, Hi) — the distributed twin of the §7 worker partition. A shard
// owns an implication rule through its antecedent column and a
// similarity rule through the pair's rank-lesser member, exactly the
// ownership relation the parallel pipelines already use, so disjoint
// covering ranges partition the rule set: the union of the shards'
// outputs is the unsharded rule set, with each rule emitted by exactly
// one shard. Non-owned columns still participate as consequents and as
// the larger pair member, which is why every shard scans the full row
// stream — only the candidate lists (the memory and the emission) are
// divided.
type ShardRange struct {
	Lo, Hi int
}

// Validate checks the range against a column count. The empty range is
// invalid: a shard that can own nothing is a planning bug, not a mine.
func (r ShardRange) Validate(mcols int) error {
	if r.Lo < 0 || r.Hi > mcols || r.Lo >= r.Hi {
		return fmt.Errorf("core: shard range [%d,%d) invalid for %d columns", r.Lo, r.Hi, mcols)
	}
	return nil
}

// full reports whether the range (nil = unsharded) covers every column.
func (r *ShardRange) full(mcols int) bool {
	return r == nil || (r.Lo <= 0 && r.Hi >= mcols)
}

// mask materializes the owned mask the scans consume: nil when the
// range covers everything, so the unsharded hot path keeps its
// no-per-row-ownership-check property.
func (r *ShardRange) mask(mcols int) colMask {
	if r.full(mcols) {
		return nil
	}
	lo, hi := r.Lo, r.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > mcols {
		hi = mcols
	}
	owned := make(colMask, mcols)
	for c := lo; c < hi; c++ {
		owned[c] = 1
	}
	return owned
}

// shardOwnership is ownership intersected with a shard: the snake walk
// runs over the in-shard columns only, so the per-worker ones-sum
// balance holds within the shard, and out-of-shard columns belong to
// no worker.
func shardOwnership(ones []int, workers int, shard *ShardRange) []colMask {
	mcols := len(ones)
	if shard.full(mcols) {
		return ownership(ones, workers)
	}
	allow := shard.mask(mcols)
	if workers == 1 {
		return []colMask{allow}
	}
	idx := make([]int, 0, shard.Hi-shard.Lo)
	for c, in := range allow {
		if in == 1 {
			idx = append(idx, c)
		}
	}
	return snakeOwnership(ones, idx, workers)
}

// ownership partitions the columns across workers with a snake
// (boustrophedon) walk over the columns sorted by descending 1-count:
// density ranks 0..W-1 go to workers 0..W-1, ranks W..2W-1 come back
// W-1..0, and so on. Every worker therefore holds an equal slice of
// every density stratum — round-robin over raw column ids balances
// counts but lets a run of dense columns land on one worker; the snake
// bounds the per-worker ones-sum imbalance by a single column's count.
func ownership(ones []int, workers int) []colMask {
	mcols := len(ones)
	if workers == 1 {
		return []colMask{nil} // nil mask = own everything, no per-row check
	}
	idx := make([]int, mcols)
	for i := range idx {
		idx[i] = i
	}
	return snakeOwnership(ones, idx, workers)
}

// snakeOwnership assigns the candidate columns idx to workers with the
// snake walk (idx need not be every column — shardOwnership passes the
// in-shard subset); columns outside idx belong to no worker.
func snakeOwnership(ones, idx []int, workers int) []colMask {
	mcols := len(ones)
	idx = append([]int(nil), idx...)
	sort.Slice(idx, func(a, b int) bool {
		oa, ob := ones[idx[a]], ones[idx[b]]
		return oa > ob || (oa == ob && idx[a] < idx[b])
	})
	owned := make([]colMask, workers)
	for w := range owned {
		owned[w] = make(colMask, mcols)
	}
	for rank, c := range idx {
		lap, off := rank/workers, rank%workers
		w := off
		if lap%2 == 1 {
			w = workers - 1 - off
		}
		owned[w][c] = 1
	}
	return owned
}
