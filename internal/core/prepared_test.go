package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dmc/internal/gen"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// memoMatrix is randomMatrix with k extra columns, each a copy or a
// random subset of an existing column, so that both families have 100%
// rules for a Prepared to hold.
func memoMatrix(rng *rand.Rand, n, m, k int) *matrix.Matrix {
	base := randomMatrix(rng, n, m)
	src := make([]matrix.Col, k)
	subset := make([]bool, k)
	for j := range src {
		src[j] = matrix.Col(rng.Intn(m))
		subset[j] = rng.Intn(2) == 0
	}
	rows := make([][]matrix.Col, n)
	for i := range rows {
		row := slices.Clone(base.Row(i))
		for j, c := range src {
			if slices.Contains(base.Row(i), c) && (!subset[j] || rng.Float64() < 0.7) {
				row = append(row, matrix.Col(m+j))
			}
		}
		rows[i] = row
	}
	return matrix.FromRows(m+k, rows)
}

// memoThresholds are the thresholds the memo tests mine at: the
// exact-rational boundaries of DESIGN §3 (90% with a column of exactly
// ten ones, 75% with the 3-of-4 pair) among ordinary ones.
var memoThresholds = []Threshold{
	FromPercent(90), FromPercent(75), FromRatio(2, 3), FromRatio(4, 5),
	FromPercent(85), FromPercent(60), FromPercent(50), FromRatio(1, 3),
}

// memoSequence is memoThresholds in random order with 100% last, and
// first too when first100 is set, so the memo is filled both by a
// 100% mine and by a <100% one, and read at 100% as well.
func memoSequence(rng *rand.Rand, first100 bool) []Threshold {
	ths := slices.Clone(memoThresholds)
	rng.Shuffle(len(ths), func(i, j int) { ths[i], ths[j] = ths[j], ths[i] })
	if first100 {
		ths = append([]Threshold{FromPercent(100)}, ths...)
	}
	return append(ths, FromPercent(100))
}

// boundaryMatrix holds the DESIGN §3 boundary cases side by side with
// a column identical to another: at 90% column 0 (ten ones, nine shared
// with column 1) implies column 1 with exactly one miss, at 75% columns
// 2 and 3 (three and four ones, three shared) are exactly 75% similar,
// and column 4 duplicates column 3.
func boundaryMatrix() *matrix.Matrix {
	var rows [][]matrix.Col
	for i := 0; i < 9; i++ {
		rows = append(rows, []matrix.Col{0, 1})
	}
	rows = append(rows, []matrix.Col{0}, []matrix.Col{1}, []matrix.Col{1}, []matrix.Col{1})
	for i := 0; i < 3; i++ {
		rows = append(rows, []matrix.Col{2, 3, 4})
	}
	return matrix.FromRows(5, append(rows, []matrix.Col{3, 4}))
}

// bypassOptions are the requests a Prepared must mine in full: each
// changes the 100% rules or the Stats a memo could give back.
func bypassOptions(mcols int) map[string]Options {
	return map[string]Options{
		"original order": {Order: OrderOriginal},
		"densest order":  {Order: OrderDensestFirst},
		"shard":          {Shard: &ShardRange{Lo: 0, Hi: (mcols + 1) / 2}},
		"single scan":    {SingleScan: true},
		"min support 2":  {MinSupport: 2},
		"sample memory":  {SampleMemory: true},
	}
}

// checkPrepared mines th through p with opts and compares each family
// with want (the naive reference, or the fresh pipeline for options the
// naive miners do not model).
func checkPrepared(t *testing.T, p *Prepared, th Threshold, opts Options, workers int, wantImp []rules.Implication, wantSim []rules.Similarity, what string) {
	t.Helper()
	imp, st := p.Implications(th, opts, workers)
	if d := rules.DiffImplications(imp, wantImp); d != "" {
		t.Fatalf("%s, imp at %v, w%d:\n%s", what, th, workers, d)
	}
	if st.NumRules != len(imp) {
		t.Fatalf("%s, imp at %v: Stats.NumRules %d, returned %d", what, th, st.NumRules, len(imp))
	}
	sim, st := p.Similarities(th, opts, workers)
	if d := rules.DiffSimilarities(sim, wantSim); d != "" {
		t.Fatalf("%s, sim at %v, w%d:\n%s", what, th, workers, d)
	}
	if st.NumRules != len(sim) {
		t.Fatalf("%s, sim at %v: Stats.NumRules %d, returned %d", what, th, st.NumRules, len(sim))
	}
}

// TestPreparedMatchesFresh: a Prepared mined at thresholds in any order
// returns exactly the naive rule sets, at workers 1 to 3, whether the
// memo was filled by a 100% mine or a <100% one; and each bypass option
// returns the fresh pipeline's rules both before the memo is filled
// (without filling it) and after.
func TestPreparedMatchesFresh(t *testing.T) {
	type tc struct {
		name string
		m    *matrix.Matrix
	}
	cases := []tc{{"boundary", boundaryMatrix()}}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, tc{fmt.Sprintf("seed %d", seed), memoMatrix(rng, 20+rng.Intn(80), 6+rng.Intn(18), 1+rng.Intn(4))})
	}
	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		wantImp := map[Threshold][]rules.Implication{}
		wantSim := map[Threshold][]rules.Similarity{}
		for _, th := range append(memoThresholds, FromPercent(100)) {
			wantImp[th], wantSim[th] = NaiveImplications(c.m, th), NaiveSimilarities(c.m, th)
		}
		for workers := 1; workers <= 3; workers++ {
			for _, first100 := range []bool{true, false} {
				p := Prepare(c.m)
				for _, th := range memoSequence(rng, first100) {
					checkPrepared(t, p, th, Options{}, workers, wantImp[th], wantSim[th], c.name)
				}
				if p.imp.all.Load() == nil || p.sim.all.Load() == nil {
					t.Fatalf("%s: memo not filled after default mines", c.name)
				}
			}
		}
		for name, opts := range bypassOptions(c.m.NumCols()) {
			for workers := 1; workers <= 3; workers++ {
				p := Prepare(c.m)
				for i, th := range memoSequence(rng, workers == 2) {
					fresh, _ := DMCImpParallel(c.m, th, opts, workers)
					freshSim, _ := DMCSimParallel(c.m, th, opts, workers)
					checkPrepared(t, p, th, opts, workers, fresh, freshSim, c.name+", "+name)
					if i == 0 && (p.imp.all.Load() != nil || p.sim.all.Load() != nil) {
						t.Fatalf("%s, %s: a bypassed request filled the memo", c.name, name)
					}
					// A default mine now and then fills the memo, which the
					// bypassed requests after it must not read.
					if i%3 == 1 {
						checkPrepared(t, p, th, Options{}, workers, wantImp[th], wantSim[th], c.name+", default after "+name)
					}
				}
			}
		}
	}
}

// TestPreparedResultIsCallers: the server sorts and re-orients rules in
// place, so no returned slice may alias the memo, whether the mine
// filled it or was served from it.
func TestPreparedResultIsCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := memoMatrix(rng, 60, 12, 4)
	p := Prepare(m)
	for _, th := range []Threshold{FromPercent(100), FromPercent(70), FromPercent(100), FromPercent(70), FromPercent(80)} {
		imp, _ := p.Implications(th, Options{}, 1)
		sim, _ := p.Similarities(th, Options{}, 2)
		if d := rules.DiffImplications(imp, NaiveImplications(m, th)); d != "" {
			t.Fatalf("imp at %v after mutating earlier results:\n%s", th, d)
		}
		if d := rules.DiffSimilarities(sim, NaiveSimilarities(m, th)); d != "" {
			t.Fatalf("sim at %v after mutating earlier results:\n%s", th, d)
		}
		rules.SortImplications(imp)
		rules.SortSimilarities(sim)
		for i := range imp {
			imp[i].From, imp[i].To, imp[i].Hits = imp[i].To, imp[i].From, -1
		}
		for i := range sim {
			sim[i].A, sim[i].B, sim[i].OnesA = sim[i].B, sim[i].A, 0
		}
	}
	if hit := p.imp.all.Load(); hit == nil || len(*hit) == 0 {
		t.Fatal("test matrix has no 100% implications to memoize")
	}
	if hit := p.sim.all.Load(); hit == nil || len(*hit) == 0 {
		t.Fatal("test matrix has no identical columns to memoize")
	}
}

// TestPreparedAbortStoresNothing: a 100% phase cut short by Ctx or by
// the memory budget leaves the slot empty, and the next mine still
// computes the exact rules and fills it. A <100% phase cut short below
// the kept threshold leaves the kept rules as they were.
func TestPreparedAbortStoresNothing(t *testing.T) {
	// Columns 20-39 are identical, so either family's 100% candidate
	// lists outgrow a 64-byte budget on the first row that has them.
	rng := rand.New(rand.NewSource(8))
	base := randomMatrix(rng, 4000, 20)
	rows := make([][]matrix.Col, base.NumRows())
	for i := range rows {
		rows[i] = slices.Clone(base.Row(i))
		if rng.Intn(3) == 0 {
			for c := 20; c < 40; c++ {
				rows[i] = append(rows[i], matrix.Col(c))
			}
		}
	}
	m := matrix.FromRows(40, rows)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		for name, tc := range map[string]struct {
			opts Options
			want func(error) bool
		}{
			"cancelled": {Options{Ctx: cancelled}, func(err error) bool { return errors.Is(err, context.Canceled) }},
			// At 100% only the 100% phase runs, so the overflow is its.
			"budget": {Options{MemBudgetBytes: 64, DisableBitmap: true}, func(err error) bool {
				var be *BudgetError
				return errors.As(err, &be)
			}},
		} {
			p := Prepare(m)
			th := FromPercent(100)
			if name == "cancelled" {
				th = FromPercent(80)
			}
			err := CapturePass(func() { p.Implications(th, tc.opts, workers) })
			if !tc.want(err) {
				t.Fatalf("%s imp w%d: got %v", name, workers, err)
			}
			err = CapturePass(func() { p.Similarities(th, tc.opts, workers) })
			if !tc.want(err) {
				t.Fatalf("%s sim w%d: got %v", name, workers, err)
			}
			if p.imp.all.Load() != nil || p.sim.all.Load() != nil {
				t.Fatalf("%s w%d: an aborted 100%% phase filled the memo", name, workers)
			}
			th = FromPercent(80)
			checkPrepared(t, p, th, Options{}, workers, NaiveImplications(m, th), NaiveSimilarities(m, th), name)
			if p.imp.all.Load() == nil || p.sim.all.Load() == nil {
				t.Fatalf("%s w%d: the mine after the abort did not fill the memo", name, workers)
			}
			// Below the kept 80% only the <100% phase runs, so the abort
			// is its, and the rules kept at 80% stay.
			below := FromPercent(70)
			if err := CapturePass(func() { p.Implications(below, tc.opts, workers) }); !tc.want(err) {
				t.Fatalf("%s imp w%d at %v: got %v", name, workers, below, err)
			}
			if err := CapturePass(func() { p.Similarities(below, tc.opts, workers) }); !tc.want(err) {
				t.Fatalf("%s sim w%d at %v: got %v", name, workers, below, err)
			}
			for _, imp := range []bool{true, false} {
				if k := keptAt(p, imp); k == nil || *k != th {
					t.Fatalf("%s w%d imp=%v: kept threshold %v after an aborted <100%% phase, want %v", name, workers, imp, k, th)
				}
			}
			checkPrepared(t, p, below, Options{}, workers, NaiveImplications(m, below), NaiveSimilarities(m, below), name+" below")
		}
	}
}

// TestPreparedHitSkipsPhase100: a mine the 100% slot stands in for
// reports no "100" phase, no 100% bitmap switch and zero Phase100 and
// Peak100, while the counts still cover the emitted 100% rules. A mine
// the memo serves whole (a repeat, or one at 100%) reports only
// "prescan" and no scan work at all.
func TestPreparedHitSkipsPhase100(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := memoMatrix(rng, 200, 16, 4)
	p := Prepare(m)
	forced := Options{BitmapMaxRows: m.NumRows(), BitmapMinBytes: -1}
	for _, workers := range []int{1, 2} {
		pipeline := "imp"
		// One worker fills both slots at 75%; two mine below that, so
		// their first mine reads the 100% slot and runs the <100% phase.
		first := FromPercent(75)
		if workers > 1 {
			pipeline, first = "imp-parallel", FromPercent(60)
		}
		for i, th := range []Threshold{first, first, FromPercent(100)} {
			rec, h := newHookRecorder()
			opts := forced
			opts.Hooks = h
			rs, st := p.Implications(th, opts, workers)
			want := []string{"prescan"}
			switch {
			case i == 0 && workers == 1:
				want = []string{"prescan", "100", "lt"}
			case i == 0:
				want = []string{"prescan", "lt"}
			}
			if got := rec.phases[pipeline]; !slices.Equal(got, want) {
				t.Fatalf("w%d mine %d at %v: phases %v, want %v", workers, i, th, got, want)
			}
			hit := len(want) < 3
			if hit && (st.Phase100 != 0 || st.Peak100 != 0 || st.Bitmap100 != 0 || st.SwitchPos100 != -1) {
				t.Fatalf("w%d mine %d: a memo hit reports 100%% phase work: %+v", workers, i, st)
			}
			if !hit && st.SwitchPos100 < 0 {
				t.Fatalf("w%d mine %d: the forced 100%% bitmap switch did not happen", workers, i)
			}
			if len(want) == 1 {
				checkServed(t, st, fmt.Sprintf("w%d mine %d at %v", workers, i, th))
			}
			if st.NumRules != len(rs) || rec.stats[pipeline].NumRules != len(rs) {
				t.Fatalf("w%d mine %d: NumRules %d, returned %d", workers, i, st.NumRules, len(rs))
			}
		}
	}
}

// checkServed fails unless st is a memo-served mine's: NumRules and
// Total, every phase, peak and count zero and both switch positions -1.
func checkServed(t *testing.T, st Stats, what string) {
	t.Helper()
	want := Stats{NumRules: st.NumRules, Total: st.Total, SwitchPos100: -1, SwitchPosLT: -1}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("%s: a memo-served mine reports scan work: %+v", what, st)
	}
}

// keptAt is the threshold of p's kept <100% rules for one family, or
// nil when none are kept.
func keptAt(p *Prepared, imp bool) *Threshold {
	if imp {
		if k := p.imp.tail.Load(); k != nil {
			return &k.t
		}
		return nil
	}
	if k := p.sim.tail.Load(); k != nil {
		return &k.t
	}
	return nil
}

// mineChecked mines one family of m at th through p, fails unless the
// rules are the naive miner's and Stats.NumRules and the OnStats hook
// count them, and returns the phases reported and the Stats.
func mineChecked(t *testing.T, p *Prepared, m *matrix.Matrix, imp bool, th Threshold, workers int) ([]string, Stats) {
	t.Helper()
	rec, h := newHookRecorder()
	opts := Options{Hooks: h}
	pipeline, n := "sim", 0
	var st Stats
	if imp {
		pipeline = "imp"
		var rs []rules.Implication
		rs, st = p.Implications(th, opts, workers)
		if d := rules.DiffImplications(rs, NaiveImplications(m, th)); d != "" {
			t.Fatalf("imp at %v w%d:\n%s", th, workers, d)
		}
		n = len(rs)
	} else {
		var rs []rules.Similarity
		rs, st = p.Similarities(th, opts, workers)
		if d := rules.DiffSimilarities(rs, NaiveSimilarities(m, th)); d != "" {
			t.Fatalf("sim at %v w%d:\n%s", th, workers, d)
		}
		n = len(rs)
	}
	if workers > 1 {
		pipeline += "-parallel"
	}
	if st.NumRules != n || rec.stats[pipeline].NumRules != n {
		t.Fatalf("%s at %v: NumRules %d, hook %d, returned %d", pipeline, th, st.NumRules, rec.stats[pipeline].NumRules, n)
	}
	return rec.phases[pipeline], st
}

// tailStep is one mine of a threshold sweep: whether it must run the
// <100% phase, and the kept threshold after it.
type tailStep struct {
	th    Threshold
	scans bool
	kept  Threshold
}

// tailSweep mines steps in order through p for one family, checking
// each against the naive miner, its phases and Stats, and the kept
// threshold after it. The first step must also run the 100% phase.
func tailSweep(t *testing.T, p *Prepared, m *matrix.Matrix, imp bool, workers int, steps []tailStep) {
	t.Helper()
	for i, s := range steps {
		what := fmt.Sprintf("imp=%v w%d mine %d at %v", imp, workers, i, s.th)
		phases, st := mineChecked(t, p, m, imp, s.th, workers)
		want := []string{"prescan"}
		switch {
		case i == 0:
			want = []string{"prescan", "100", "lt"}
		case s.scans:
			want = []string{"prescan", "lt"}
		}
		if !slices.Equal(phases, want) {
			t.Fatalf("%s: phases %v, want %v", what, phases, want)
		}
		if !s.scans {
			checkServed(t, st, what)
		}
		if k := keptAt(p, imp); k == nil || *k != s.kept {
			t.Fatalf("%s: kept threshold %v, want %v", what, k, s.kept)
		}
	}
}

// TestPreparedTailSweep: the first <100% mine keeps its <100% rules; a
// repeat, and a mine above it, are served from them with no scan work;
// a mine below runs the <100% phase and lowers the kept threshold, and
// a mine between the two is then served. Every reply is exact.
func TestPreparedTailSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := memoMatrix(rng, 200, 16, 4)
	if a, b := len(NaiveImplications(m, FromPercent(60))), len(NaiveImplications(m, FromPercent(90))); a <= b {
		t.Fatalf("test matrix has %d implications at 60%% and %d at 90%%: a filter would drop nothing", a, b)
	}
	steps := []tailStep{
		{FromPercent(75), true, FromPercent(75)},
		{FromPercent(75), false, FromPercent(75)},
		{FromPercent(90), false, FromPercent(75)},
		{FromPercent(60), true, FromPercent(60)},
		{FromRatio(2, 3), false, FromPercent(60)},
		{FromPercent(60), false, FromPercent(60)},
		{FromPercent(100), false, FromPercent(60)},
	}
	for _, imp := range []bool{true, false} {
		for workers := 1; workers <= 3; workers++ {
			tailSweep(t, Prepare(m), m, imp, workers, steps)
		}
	}
}

// TestPreparedTailBoundary: rules exactly at a threshold survive the
// filter of a tail kept below it. On boundaryMatrix, a tail kept at 1/3
// or 2/3 yields the 9-of-10 implication at exactly 90% and the 3-of-4
// similarity at exactly 75%, each served without a scan.
func TestPreparedTailBoundary(t *testing.T) {
	m := boundaryMatrix()
	at90, at75 := FromPercent(90), FromPercent(75)
	for _, keep := range []Threshold{FromRatio(1, 3), FromRatio(2, 3)} {
		p := Prepare(m)
		for _, imp := range []bool{true, false} {
			tailSweep(t, p, m, imp, 1, []tailStep{
				{keep, true, keep}, {at75, false, keep}, {at90, false, keep},
			})
		}
		imps, _ := p.Implications(at90, Options{}, 1)
		if !slices.Contains(imps, rules.Implication{From: 0, To: 1, Hits: 9, Ones: 10}) {
			t.Fatalf("kept at %v: the implication at exactly 90%% is missing at 90%%: %v", keep, imps)
		}
		sims, _ := p.Similarities(at75, Options{}, 1)
		if !slices.ContainsFunc(sims, func(s rules.Similarity) bool { return s.Hits == 3 && s.OnesA == 3 && s.OnesB == 4 }) {
			t.Fatalf("kept at %v: the similarity at exactly 75%% is missing at 75%%: %v", keep, sims)
		}
	}
}

// TestPreparedTailOverBound: a mine whose <100% rules outgrow the data
// set's Footprint returns them exactly but keeps none, so the next mine
// at its threshold runs the <100% phase again.
func TestPreparedTailOverBound(t *testing.T) {
	// Each column is in about two rows of three, so nearly every pair is
	// a <100% rule at 1/3: far more rule bytes than the matrix holds.
	rng := rand.New(rand.NewSource(12))
	rows := make([][]matrix.Col, 12)
	for i := range rows {
		for c := 0; c < 40; c++ {
			if rng.Intn(3) > 0 {
				rows[i] = append(rows[i], matrix.Col(c))
			}
		}
	}
	m := matrix.FromRows(40, rows)
	th := FromRatio(1, 3)
	bound := Footprint(m.NumOnes(), m.NumCols())
	var lt [2]int
	for _, r := range NaiveImplications(m, th) {
		if !impFamily.found100(r) {
			lt[0]++
		}
	}
	for _, r := range NaiveSimilarities(m, th) {
		if !simFamily.found100(r) {
			lt[1]++
		}
	}
	if int64(lt[0])*int64(unsafe.Sizeof(rules.Implication{})) <= bound || int64(lt[1])*int64(unsafe.Sizeof(rules.Similarity{})) <= bound {
		t.Fatalf("test matrix's <100%% rules (%d imp, %d sim) fit under its %d B footprint", lt[0], lt[1], bound)
	}
	for _, imp := range []bool{true, false} {
		for workers := 1; workers <= 2; workers++ {
			p := Prepare(m)
			for i, want := range [][]string{{"prescan", "100", "lt"}, {"prescan", "lt"}} {
				if phases, _ := mineChecked(t, p, m, imp, th, workers); !slices.Equal(phases, want) {
					t.Fatalf("imp=%v w%d mine %d: phases %v, want %v", imp, workers, i, phases, want)
				}
				if k := keptAt(p, imp); k != nil {
					t.Fatalf("imp=%v w%d: a tail over the footprint was kept at %v", imp, workers, *k)
				}
			}
		}
	}
}

// countingSource counts the passes started over a ConcurrentSource.
type countingSource struct {
	ConcurrentSource
	passes atomic.Int64
}

func (s *countingSource) Pass() Rows {
	s.passes.Add(1)
	return s.ConcurrentSource.Pass()
}

func (s *countingSource) ConcurrentPass(n int) []Rows {
	s.passes.Add(1)
	return s.ConcurrentSource.ConcurrentPass(n)
}

// TestPreparedSourceTail: a PrepareSource memo keeps and serves its
// <100% rules as a matrix's does, and a served mine starts no pass of
// its source.
func TestPreparedSourceTail(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := memoMatrix(rng, 200, 16, 4)
	for _, imp := range []bool{true, false} {
		for workers := 1; workers <= 2; workers++ {
			src := &countingSource{ConcurrentSource: MatrixSource(m, matrix.SparsestFirstOrder(m)).(ConcurrentSource)}
			p := PrepareSource(src, m.Ones())
			for i, s := range []struct {
				th     Threshold
				passes int64
				kept   Threshold
			}{
				{FromPercent(70), 2, FromPercent(70)},
				{FromPercent(85), 0, FromPercent(70)},
				{FromPercent(55), 1, FromPercent(55)},
				{FromPercent(65), 0, FromPercent(55)},
				{FromPercent(100), 0, FromPercent(55)},
			} {
				before := src.passes.Load()
				_, st := mineChecked(t, p, m, imp, s.th, workers)
				if n := src.passes.Load() - before; n != s.passes {
					t.Fatalf("imp=%v w%d mine %d at %v: %d passes, want %d", imp, workers, i, s.th, n, s.passes)
				}
				if s.passes == 0 {
					checkServed(t, st, fmt.Sprintf("imp=%v w%d mine %d", imp, workers, i))
				}
				if k := keptAt(p, imp); k == nil || *k != s.kept {
					t.Fatalf("imp=%v w%d mine %d: kept threshold %v, want %v", imp, workers, i, k, s.kept)
				}
			}
		}
	}
}

// TestPreparedConcurrent: goroutines mining one Prepared at mixed
// thresholds, families and worker counts race to fill and read every
// slot; every result stays exact, and each family keeps the <100% rules
// of the lowest threshold it mined.
func TestPreparedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := memoMatrix(rng, 300, 24, 4)
	ths := append([]Threshold{FromPercent(100)}, memoThresholds[:5]...)
	wantImp := map[Threshold][]rules.Implication{}
	wantSim := map[Threshold][]rules.Similarity{}
	for _, th := range ths {
		wantImp[th], wantSim[th] = NaiveImplications(m, th), NaiveSimilarities(m, th)
	}
	// Goroutine g's mine i is an implication mine at ths[(g+i)%len(ths)]
	// when g+i is even, so each family's lowest threshold is fixed.
	lowest := map[bool]Threshold{}
	for k, th := range ths {
		if lo, ok := lowest[k%2 == 0]; !th.IsOne() && (!ok || th.less(lo)) {
			lowest[k%2 == 0] = th
		}
	}
	for round := 0; round < 3; round++ {
		p := Prepare(m)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					th, workers := ths[(g+i)%len(ths)], 1+(g+i)%3
					if (g+i)%2 == 0 {
						got, _ := p.Implications(th, Options{}, workers)
						if d := rules.DiffImplications(got, wantImp[th]); d != "" {
							t.Errorf("goroutine %d imp at %v w%d:\n%s", g, th, workers, d)
						}
					} else {
						got, _ := p.Similarities(th, Options{}, workers)
						if d := rules.DiffSimilarities(got, wantSim[th]); d != "" {
							t.Errorf("goroutine %d sim at %v w%d:\n%s", g, th, workers, d)
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, imp := range []bool{true, false} {
			if k := keptAt(p, imp); k == nil || *k != lowest[imp] {
				t.Fatalf("round %d, imp=%v: kept threshold %v after the race, want the lowest mined, %v", round, imp, k, lowest[imp])
			}
		}
	}
}

// FuzzPreparedParity: any small matrix mined through one Prepared at
// any sequence of thresholds, families and worker counts gives the
// naive rule sets. The first two bytes are the shape, the next
// rows×cols bits the matrix, and each byte after them one mine.
func FuzzPreparedParity(f *testing.F) {
	f.Add([]byte{4, 4, 0x0f, 0xf0, 0xff, 0x31, 100, 7, 42, 200})
	f.Add([]byte{6, 3, 0xdb, 0xb6, 0x6d, 0, 255, 255, 17, 3})
	f.Add([]byte{9, 5, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x01, 50, 90, 75, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, mcols := 1+int(data[0])%12, 1+int(data[1])%8
		bits := data[2:]
		rows := make([][]matrix.Col, n)
		for i := range rows {
			for j := 0; j < mcols; j++ {
				k := i*mcols + j
				if k/8 < len(bits) && bits[k/8]&(1<<(k%8)) != 0 {
					rows[i] = append(rows[i], matrix.Col(j))
				}
			}
		}
		m := matrix.FromRows(mcols, rows)
		ops := data[min(len(data), 2+(n*mcols+7)/8):]
		if len(ops) > 12 {
			ops = ops[:12]
		}
		p := Prepare(m)
		for _, b := range ops {
			// The low bit picks the family, the rest the worker count
			// and a threshold num/den with den ≤ 8, which puts every
			// boundary of these small counts in reach (0x20 forces 100%).
			den := 1 + int64(b>>3)%8
			num := 1 + int64(b>>6)%den
			if b&0x20 != 0 {
				num = den
			}
			th, workers := FromRatio(num, den), 1+int(b>>1)%3
			if b&1 == 0 {
				got, _ := p.Implications(th, Options{}, workers)
				if d := rules.DiffImplications(got, NaiveImplications(m, th)); d != "" {
					t.Fatalf("imp at %v w%d:\n%s", th, workers, d)
				}
			} else {
				got, _ := p.Similarities(th, Options{}, workers)
				if d := rules.DiffSimilarities(got, NaiveSimilarities(m, th)); d != "" {
					t.Fatalf("sim at %v w%d:\n%s", th, workers, d)
				}
			}
		}
	})
}

// BenchmarkPreparedKeys cycles the load benchmark's 15 keys
// (implications at 55 to 90, similarities at 60 to 90, in steps of 5)
// over its data, gen.Bench at scale 1/8. One op is the whole cycle.
//
//   - fresh mines each key with DMCImp or DMCSim.
//   - desc/w1 and desc/w2 mine each family's keys in descending
//     thresholds through a Prepared whose 100% rules are stored and
//     whose kept <100% rules are dropped before each cycle, so every
//     mine runs the <100% phase, at one worker and at two.
//   - hits mines the keys through a warm Prepared, which serves every
//     one from its memo.
//
// The per-mine means of the prescan, the 100% phase and the <100% phase
// show where the memo's saving lands, and the per-key means (ms/imp55
// and so on) where a second worker wins or loses.
func BenchmarkPreparedKeys(b *testing.B) {
	m := gen.Bench(gen.Config{Scale: 0.125, Seed: 1})
	type key struct {
		imp bool
		pct int
	}
	keys := []key{{true, 55}}
	for pct := 60; pct <= 90; pct += 5 {
		keys = append(keys, key{true, pct}, key{false, pct})
	}
	for _, side := range []struct {
		name    string
		memo    bool
		desc    bool
		workers int
	}{{"fresh", false, false, 1}, {"desc/w1", true, true, 1}, {"desc/w2", true, true, 2}, {"hits", true, false, 1}} {
		b.Run(side.name, func(b *testing.B) {
			p := Prepare(m)
			perKey := make([]float64, len(keys))
			cycle := func() (prescan, p100, lt float64) {
				if side.desc {
					p.imp.tail.Store(nil)
					p.sim.tail.Store(nil)
				}
				for j := range keys {
					i := j
					if side.desc {
						i = len(keys) - 1 - j
					}
					k := keys[i]
					th := FromPercent(k.pct)
					start := time.Now()
					var st Stats
					switch {
					case !side.memo && k.imp:
						_, st = DMCImp(m, th, Options{})
					case !side.memo:
						_, st = DMCSim(m, th, Options{})
					case k.imp:
						_, st = p.Implications(th, Options{}, side.workers)
					default:
						_, st = p.Similarities(th, Options{}, side.workers)
					}
					perKey[i] += time.Since(start).Seconds() * 1e3
					prescan += st.Prescan.Seconds() * 1e3
					p100 += st.Phase100.Seconds() * 1e3
					lt += st.PhaseLT.Seconds() * 1e3
				}
				return prescan, p100, lt
			}
			cycle() // fills the memo; the fresh side just warms up
			clear(perKey)
			b.ResetTimer()
			var prescan, p100, lt float64
			for i := 0; i < b.N; i++ {
				a, c, d := cycle()
				prescan, p100, lt = prescan+a, p100+c, lt+d
			}
			mines := float64(b.N * len(keys))
			b.ReportMetric(prescan/mines, "prescan-ms/mine")
			b.ReportMetric(p100/mines, "phase100-ms/mine")
			b.ReportMetric(lt/mines, "phaselt-ms/mine")
			for i, k := range keys {
				fam := "sim"
				if k.imp {
					fam = "imp"
				}
				b.ReportMetric(perKey[i]/float64(b.N), fmt.Sprintf("ms/%s%d", fam, k.pct))
			}
		})
	}
}
