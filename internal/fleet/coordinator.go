package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// DatasetRef names the dataset a fleet mine runs over. M is the
// coordinator's resident copy: the planner needs its per-column ones
// counts and a stale worker gets its replica pushed from it. Hash is
// its content address — the identity every worker's replica must
// match for the merge to be meaningful.
type DatasetRef struct {
	Name string
	Hash string
	M    *matrix.Matrix
}

// Params are the mine parameters fanned out with every shard.
type Params struct {
	ThresholdPercent int
	MinSupport       int
	// Workers is the per-node pipeline fan-out (the workers= mine
	// parameter each node runs its shard with); 0 = one per node CPU.
	Workers int
}

// Stats reports what one fleet mine did.
type Stats struct {
	// Nodes is how many healthy workers the mine was planned over;
	// Shards how many shard tasks that produced (== Nodes today).
	Nodes, Shards int
	// Attempts counts shard dispatches including retries; Requeues the
	// attempts that moved a shard to a different node after a failure;
	// Skips the nodes passed over because a breaker was not closed or a
	// Retry-After embargo was live (skips burn no attempt); Pushes the
	// dataset replicas shipped to stale workers.
	Attempts, Requeues, Skips, Pushes int
	// Hedges counts dispatches that launched a speculative second
	// attempt; HedgeWins the hedges whose answer won.
	Hedges, HedgeWins int
	// Merge is the gather cost: payload parse + canonical sort.
	Merge time.Duration
}

// Options tune the coordinator.
type Options struct {
	// MaxAttempts bounds how often one shard may be dispatched before
	// the mine fails (dataset pushes and breaker/embargo skips do not
	// consume attempts); 0 means twice the node count.
	MaxAttempts int
	// Retry shapes the full-jitter backoff between a shard's failure and
	// its re-dispatch. Only Backoff/Sleep are used — the attempt budget
	// is MaxAttempts above. The zero value backs off from 2ms, capped at
	// 250ms.
	Retry fault.RetryPolicy
	// HedgeAfter is how long a dispatch waits for its primary before
	// launching the same shard on a sibling: > 0 is a fixed delay, < 0
	// disables hedging, and 0 (the default) adapts to twice the EWMA of
	// observed shard latency once a sample exists.
	HedgeAfter time.Duration
}

// Coordinator scatters one mine over the registry's healthy nodes and
// gathers the shard outputs into the exact unsharded rule set.
type Coordinator struct {
	reg *Registry
	opt Options
	lat latencyEWMA
}

// NewCoordinator builds a coordinator over reg.
func NewCoordinator(reg *Registry, opt Options) *Coordinator {
	return &Coordinator{reg: reg, opt: opt}
}

// Registry exposes the coordinator's node table (for probes/shutdown).
func (c *Coordinator) Registry() *Registry { return c.reg }

// HedgeDelay reports the delay a dispatch would hedge after right now
// (0 = hedging off or no latency sample yet) — surfaced on
// GET /v1/fleet/status.
func (c *Coordinator) HedgeDelay() time.Duration { return c.hedgeDelay() }

// MineImplications runs a fleet implication mine. The result is the
// exact rule set a single-node mine of ds.M would produce, in the
// canonical (From, To) order.
func (c *Coordinator) MineImplications(ctx context.Context, ds DatasetRef, p Params) ([]rules.Implication, Stats, error) {
	return gather(ctx, c, ds, p, "imp", rules.ReadImplications, rules.SortImplications)
}

// MineSimilarities is MineImplications for similarity rules, merged
// into the canonical (A, B) order.
func (c *Coordinator) MineSimilarities(ctx context.Context, ds DatasetRef, p Params) ([]rules.Similarity, Stats, error) {
	return gather(ctx, c, ds, p, "sim", rules.ReadSimilarities, rules.SortSimilarities)
}

// gather scatters one mode's mine and merges the shard payloads,
// decoded with read, into canon's canonical order.
func gather[R any](ctx context.Context, c *Coordinator, ds DatasetRef, p Params, mode string,
	read func(io.Reader) ([]R, error), canon func([]R)) ([]R, Stats, error) {
	payloads, st, err := c.scatter(ctx, ds, p, mode)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	var out []R
	for _, pl := range payloads {
		rs, err := read(bytes.NewReader(pl))
		if err != nil {
			return nil, st, fmt.Errorf("fleet: parsing shard payload: %w", err)
		}
		out = append(out, rs...)
	}
	canon(out)
	st.Merge = time.Since(t0)
	c.reg.met.mergeSec.Observe(st.Merge.Seconds())
	c.reg.met.mines.With(mode).Inc()
	return out, st, nil
}

// starveLimit bounds how many consecutive pick rounds a shard may come
// up empty (every node breaker-gated or embargoed) before the mine
// fails — each round either probes half-open breakers or waits out the
// earliest embargo, so persistent starvation means the fleet is gone.
const starveLimit = 3

// pick selects the next dispatchable node round-robin from *cursor:
// breaker closed and no live Retry-After embargo. Nodes passed over
// count into dmc_fleet_skips_total and burn no attempt. The second
// return is the hedge backup — the next dispatchable sibling, nil when
// the primary is the only candidate. A full empty lap returns nil.
func (c *Coordinator) pick(nodes []*Node, cursor *int, skips *atomic.Int64) (primary, backup *Node) {
	now := time.Now()
	for step := 0; step < len(nodes); step++ {
		j := (*cursor + step) % len(nodes)
		n := nodes[j]
		if !n.dispatchable(now) {
			skips.Add(1)
			c.reg.met.skips.Inc()
			continue
		}
		*cursor = j
		for b := 1; b < len(nodes); b++ {
			if cand := nodes[(j+b)%len(nodes)]; cand.dispatchable(now) {
				return n, cand
			}
		}
		return n, nil
	}
	return nil, nil
}

// earliestEmbargo returns the soonest Retry-After embargo expiry among
// breaker-allowed nodes, or the zero time when no embargo is live (the
// remaining gates are breakers, which a sleep cannot fix).
func earliestEmbargo(nodes []*Node) time.Time {
	var wake time.Time
	now := time.Now()
	for _, n := range nodes {
		if !n.br.Allow() {
			continue
		}
		if until := n.shedEmbargo(); until.After(now) && (wake.IsZero() || until.Before(wake)) {
			wake = until
		}
	}
	return wake
}

// sleepUntil blocks until t or ctx is done.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scatter plans the shards over the healthy nodes and runs them
// concurrently. Each shard walks the nodes round robin from its home
// node: breaker-open or embargoed nodes are skipped (no attempt
// burned), a failed dispatch backs off with full jitter and requeues
// to the next sibling, a straggling dispatch hedges to a sibling after
// the hedge delay, and a shard that finds every node gated probes
// half-open breakers or waits out the earliest embargo before failing.
func (c *Coordinator) scatter(ctx context.Context, ds DatasetRef, p Params, mode string) ([][]byte, Stats, error) {
	var st Stats
	if ds.M == nil {
		return nil, st, errors.New("fleet: dataset has no resident matrix (fleet mines plan over the coordinator's copy)")
	}
	if ds.Hash == "" {
		return nil, st, errors.New("fleet: dataset has no content hash")
	}
	nodes := c.reg.Healthy()
	if len(nodes) == 0 {
		return nil, st, ErrNoNodes
	}
	shards := Plan(ds.M.Ones(), len(nodes))
	st.Nodes, st.Shards = len(nodes), len(shards)
	maxAttempts := c.opt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2 * len(nodes)
	}

	met := c.reg.met
	payloads := make([][]byte, len(shards))
	errs := make([]error, len(shards))
	var attempts, requeues, skips, pushes, hedges, hedgeWins atomic.Int64
	var frameOnce sync.Once
	var frame []byte
	var frameErr error
	replica := func() ([]byte, error) {
		frameOnce.Do(func() { frame, frameErr = EncodeDataset(ds.M) })
		return frame, frameErr
	}

	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := Task{
				Dataset: ds.Name, Hash: ds.Hash, Mode: mode,
				Threshold: p.ThresholdPercent, MinSupport: p.MinSupport,
				ColLo: shards[i].Lo, ColHi: shards[i].Hi,
				Workers: p.Workers,
			}
			cursor := i % len(nodes)
			var lastErr error
			starved := 0
			for dispatches := 0; dispatches < maxAttempts; {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					return
				}
				primary, backup := c.pick(nodes, &cursor, &skips)
				if primary == nil {
					starved++
					if starved > starveLimit {
						errs[i] = fmt.Errorf("fleet: shard [%d,%d): every node breaker-gated or embargoed: %w",
							task.ColLo, task.ColHi, ErrNoNodes)
						return
					}
					// Half-open breakers can be probed right now; embargoes
					// expire on their own. Anything else is terminal.
					if c.reg.probeHalfOpen(ctx) {
						continue
					}
					wake := earliestEmbargo(nodes)
					if wake.IsZero() {
						errs[i] = fmt.Errorf("fleet: shard [%d,%d): every node breaker-gated or embargoed: %w",
							task.ColLo, task.ColHi, ErrNoNodes)
						return
					}
					if err := sleepUntil(ctx, wake); err != nil {
						errs[i] = err
						return
					}
					continue
				}
				starved = 0
				if dispatches > 0 {
					requeues.Add(1)
					met.requeues.Inc()
					if err := c.opt.Retry.Sleep(ctx, dispatches); err != nil {
						errs[i] = err
						return
					}
				}
				dispatches++
				attempts.Add(1)
				met.shards.Inc()
				res := c.runHedged(ctx, primary, backup, task)
				if res.hedged {
					hedges.Add(1)
					if res.won {
						hedgeWins.Add(1)
					}
				}
				payload, err := res.payload, res.err
				if errors.Is(err, ErrStaleReplica) {
					fr, ferr := replica()
					if ferr != nil {
						errs[i] = ferr
						return
					}
					pushes.Add(1)
					met.pushes.Inc()
					if err = res.n.pushDataset(ctx, ds.Name, fr); err == nil {
						payload, err = res.n.runShard(ctx, task)
					}
				}
				if err == nil {
					payloads[i] = payload
					return
				}
				lastErr = err
				var se *ShardError
				if errors.As(err, &se) {
					errs[i] = err // final rejection: no node will answer differently
					return
				}
				// Advance past the failed node so the requeue lands on the
				// next dispatchable sibling.
				cursor++
			}
			errs[i] = fmt.Errorf("fleet: shard [%d,%d) failed after %d attempts: %w",
				task.ColLo, task.ColHi, maxAttempts, lastErr)
		}(i)
	}
	wg.Wait()
	st.Attempts = int(attempts.Load())
	st.Requeues = int(requeues.Load())
	st.Skips = int(skips.Load())
	st.Pushes = int(pushes.Load())
	st.Hedges = int(hedges.Load())
	st.HedgeWins = int(hedgeWins.Load())
	if err := errors.Join(errs...); err != nil {
		return nil, st, err
	}
	return payloads, st, nil
}
