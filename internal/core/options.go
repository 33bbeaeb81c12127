package core

import (
	"context"
	"time"

	"dmc/internal/matrix"
)

// OrderKind selects the second-pass row order (§4.1).
type OrderKind int

const (
	// OrderSparsestFirst scans density buckets [2^i, 2^{i+1}) from
	// sparsest to densest — the paper's default, which keeps the
	// counter array small until the dense tail.
	OrderSparsestFirst OrderKind = iota
	// OrderOriginal scans rows as stored.
	OrderOriginal
	// OrderDensestFirst scans the buckets densest-first — the §4.1
	// worst case, kept for the row-ordering ablation.
	OrderDensestFirst
)

func (k OrderKind) String() string {
	switch k {
	case OrderSparsestFirst:
		return "sparsest-first"
	case OrderOriginal:
		return "original"
	case OrderDensestFirst:
		return "densest-first"
	}
	return "unknown"
}

func (k OrderKind) order(m *matrix.Matrix) matrix.ScanOrder {
	switch k {
	case OrderOriginal:
		return matrix.OriginalOrder(m.NumRows())
	case OrderDensestFirst:
		return matrix.DensestFirstOrder(m)
	default:
		return matrix.SparsestFirstOrder(m)
	}
}

// Memory model of the counter array, matching the paper's accounting:
// a counting candidate (id + miss counter) costs 8 bytes, an id-only
// candidate in the 100%-rule lists costs 4.
const (
	entryBytes    = 8
	entryBytes100 = 4
)

// Options configure the DMC pipelines. The zero value gives the paper's
// implementation choices: sparsest-first order and the DMC-bitmap
// switch at ≤64 remaining rows over a 50MB counter array.
type Options struct {
	// Order is the second-pass row order.
	Order OrderKind

	// BitmapMaxRows is the largest number of remaining rows DMC-bitmap
	// will absorb; 0 means the paper's 64.
	BitmapMaxRows int

	// BitmapMinBytes is the counter-array size that must be exceeded
	// before switching to DMC-bitmap; 0 means the paper's 50MB. Set
	// negative to switch purely on BitmapMaxRows.
	BitmapMinBytes int

	// DisableBitmap turns the DMC-bitmap switch off entirely (the
	// memory-explosion ablation).
	DisableBitmap bool

	// SingleScan skips the 100%-rule phase and the low-frequency
	// column removal, running one general miss-counting scan — i.e.
	// plain DMC-base, kept for the 100%-rule-pruning ablation.
	SingleScan bool

	// SampleMemory records a per-row counter-array size series into
	// Stats.MemSamples (the Fig-3 instrumentation).
	SampleMemory bool

	// MinSupport, when above 1, applies classical support pruning on
	// top of confidence pruning: columns with fewer 1s are masked out
	// of every phase, exactly as §6.2 does when comparing against
	// a-priori ("support pruning can be applied to DMC … in the same
	// manner as a-priori"). Zero keeps the paper's default of no
	// support pruning.
	MinSupport int

	// Hooks, when non-nil, receives pipeline lifecycle events as they
	// happen — the serving layer's metrics feed. Nil disables all
	// instrumentation at zero cost.
	Hooks *Hooks

	// Ctx, when non-nil, is polled by every scan loop (each 512 rows):
	// cancellation or deadline expiry aborts the mine promptly via the
	// SourceError panic protocol. The error the pipelines return (or
	// that CapturePass recovers) unwraps to the context's error, so
	// errors.Is(err, context.Canceled) works. Nil means uncancellable.
	Ctx context.Context

	// Shard, when non-nil, restricts rule ownership to the column range
	// [Shard.Lo, Shard.Hi): only in-range columns act as implication
	// antecedents or as a similarity pair's rank-lesser member, so the
	// mine emits exactly the rules this shard owns. Disjoint covering
	// shards partition the full rule set — the distributed fleet's
	// correctness contract (package fleet). Nil mines everything.
	Shard *ShardRange

	// MemBudgetBytes, when > 0, bounds the modeled mining memory — the
	// paper's counter-array accounting (candidate entries at 8/4 bytes,
	// per worker for the parallel pipelines). A budget below
	// BitmapMinBytes lowers the DMC-bitmap switch threshold, degrading
	// to the bitmap endgame as early as the tail allows; if the budget
	// is exceeded while the tail is still too large for the bitmap (or
	// the bitmap is disabled), the mine aborts with a BudgetError that
	// callers catch to degrade to the partitioned/spill path. Zero means
	// unbounded.
	MemBudgetBytes int
}

// Hooks observes pipeline execution. Every field is optional, and a
// nil *Hooks is valid everywhere one is accepted. Callbacks run
// synchronously on the mining goroutine (for the parallel pipelines,
// on the coordinating goroutine, never concurrently), so they must be
// fast and non-blocking.
type Hooks struct {
	// OnPhase fires once per completed phase with its wall-clock
	// duration. Pipelines are "imp" and "sim", suffixed "-parallel"
	// when the resolved worker count is above 1 ("imp-parallel",
	// "sim-parallel"); phases are "prescan", "100" and "lt". A
	// Prepared mine fires "100" only when it computes the 100% rules,
	// not when it reuses its memo, and after its first mine its
	// "prescan" times only the scan order. A mine its memo serves
	// whole fires only a zero "prescan".
	OnPhase func(pipeline, phase string, d time.Duration)
	// OnBitmapSwitch fires when a phase switched to DMC-bitmap, with
	// the scan position of the switch (never for a "100" phase a
	// Prepared memo stood in for).
	OnBitmapSwitch func(pipeline, phase string, pos int)
	// OnStats fires once at the end of a run with the full Stats.
	OnStats func(pipeline string, st Stats)
}

func (h *Hooks) emitPhase(pipeline, phase string, d time.Duration) {
	if h != nil && h.OnPhase != nil {
		h.OnPhase(pipeline, phase, d)
	}
}

func (h *Hooks) emitSwitch(pipeline, phase string, pos int) {
	if h != nil && h.OnBitmapSwitch != nil && pos >= 0 {
		h.OnBitmapSwitch(pipeline, phase, pos)
	}
}

func (h *Hooks) emitStats(pipeline string, st Stats) {
	if h != nil && h.OnStats != nil {
		h.OnStats(pipeline, st)
	}
}

// supportMask returns the column mask for MinSupport, or nil when no
// support pruning is requested.
func (o Options) supportMask(ones []int) colMask {
	if o.MinSupport <= 1 {
		return nil
	}
	alive := make(colMask, len(ones))
	for c, k := range ones {
		if k >= o.MinSupport {
			alive[c] = 1
		}
	}
	return alive
}

func (o Options) bitmapMaxRows() int {
	if o.BitmapMaxRows == 0 {
		return 64
	}
	return o.BitmapMaxRows
}

func (o Options) bitmapMinBytes() int {
	if o.BitmapMinBytes == 0 {
		return 50 << 20
	}
	return o.BitmapMinBytes
}

// MemSample is one point of the Fig-3 memory series: the counter-array
// size in bytes after processing the row at scan position Pos.
type MemSample struct {
	Pos   int
	Bytes int
}

// Stats reports what a pipeline run did. Durations are wall-clock; the
// memory figures follow the paper's counter-array model (Options doc).
type Stats struct {
	// Prescan is the first pass: counting ones(c) per column (and, for
	// the pipelines, deriving the bucket order). A Prepared counts
	// ones(c) once, so its later mines time only the order, and a mine
	// its memo serves whole derives none and reports 0.
	Prescan time.Duration
	// Phase100 is the 100%-rule (or identical-column) phase; 0 when a
	// Prepared memo stood in for it.
	Phase100 time.Duration
	// PhaseLT is the less-than-100% phase.
	PhaseLT time.Duration
	// Bitmap is the time spent inside DMC-bitmap across both phases
	// (already included in Phase100/PhaseLT); Bitmap100 and BitmapLT
	// split it per phase — the paper's Fig 6(e)/(f) jump lives in the
	// <100% share.
	Bitmap, Bitmap100, BitmapLT time.Duration
	// Total is the end-to-end duration.
	Total time.Duration

	// PeakCounterBytes is the maximum counter-array size over the run;
	// Peak100 and PeakLT split it per phase. The paper's Fig 6(g)/(h)
	// plot the counting phase's array (PeakLT), since the 100%-rule
	// lists carry no counters.
	PeakCounterBytes, Peak100, PeakLT int
	// TailBitmapBytes is the memory materialized by DMC-bitmap switches
	// (tail row copies + column bitmaps), summed over both phases. The
	// parallel pipelines build each tail once and share it read-only
	// across workers, so this figure stays flat as workers grow instead
	// of scaling W-fold.
	TailBitmapBytes int
	// SwitchPos100 and SwitchPosLT are the scan positions at which the
	// respective phases switched to DMC-bitmap, or -1.
	SwitchPos100, SwitchPosLT int
	// CandidatesAdded and CandidatesDeleted count candidate-list
	// insertions and dynamic deletions across the run.
	CandidatesAdded, CandidatesDeleted int
	// ColumnsAfterCutoff is the number of columns that survived the
	// step-3 low-frequency cutoff (equals the column count for
	// SingleScan runs).
	ColumnsAfterCutoff int
	// NumRules is the number of rules emitted.
	NumRules int
	// MemSamples is the per-row memory series (only with
	// Options.SampleMemory on a one-worker mine; positions are
	// per-phase scan positions).
	MemSamples []MemSample
}

type memMeter struct {
	bytes   int
	peak    int
	samples []MemSample
	sample  bool
}

func (mm *memMeter) add(entries, perEntry int)    { mm.grow(entries * perEntry) }
func (mm *memMeter) remove(entries, perEntry int) { mm.grow(-entries * perEntry) }

func (mm *memMeter) grow(b int) {
	mm.bytes += b
	if mm.bytes > mm.peak {
		mm.peak = mm.bytes
	}
}

func (mm *memMeter) snapshot(pos int) {
	if mm.sample {
		mm.samples = append(mm.samples, MemSample{Pos: pos, Bytes: mm.bytes})
	}
}
