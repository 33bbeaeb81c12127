package core

import (
	"fmt"
	"testing"
	"time"

	"dmc/internal/matrix"
)

// hookRecorder captures every hook event for assertion.
type hookRecorder struct {
	phases   map[string][]string // pipeline -> phase sequence
	switches int
	stats    map[string]Stats
}

func newHookRecorder() (*hookRecorder, *Hooks) {
	rec := &hookRecorder{phases: map[string][]string{}, stats: map[string]Stats{}}
	h := &Hooks{
		OnPhase: func(pipeline, phase string, d time.Duration) {
			if d < 0 {
				panic("negative phase duration")
			}
			rec.phases[pipeline] = append(rec.phases[pipeline], phase)
		},
		OnBitmapSwitch: func(pipeline, phase string, pos int) { rec.switches++ },
		OnStats:        func(pipeline string, st Stats) { rec.stats[pipeline] = st },
	}
	return rec, h
}

func hooksMatrix() *matrix.Matrix {
	return matrix.FromRows(4, [][]matrix.Col{
		{0, 1}, {0, 1, 2}, {0, 2}, {1, 3}, {0, 1}, {2, 3}, {0, 1, 3},
	})
}

func TestHooksImp(t *testing.T) {
	rec, h := newHookRecorder()
	rs, st := DMCImp(hooksMatrix(), FromPercent(60), Options{Hooks: h})
	if got := rec.phases["imp"]; len(got) != 3 || got[0] != "prescan" || got[1] != "100" || got[2] != "lt" {
		t.Fatalf("imp phases = %v", got)
	}
	final, ok := rec.stats["imp"]
	if !ok {
		t.Fatal("OnStats not fired")
	}
	if final.NumRules != len(rs) || final.NumRules != st.NumRules {
		t.Fatalf("OnStats rules = %d, returned %d", final.NumRules, len(rs))
	}
	if final.Total < final.Phase100+final.PhaseLT {
		t.Fatalf("Total %v < phases %v + %v", final.Total, final.Phase100, final.PhaseLT)
	}
}

func TestHooksSimAndSingleScan(t *testing.T) {
	rec, h := newHookRecorder()
	DMCSim(hooksMatrix(), FromPercent(50), Options{Hooks: h})
	if got := rec.phases["sim"]; len(got) != 3 || got[2] != "lt" {
		t.Fatalf("sim phases = %v", got)
	}

	rec, h = newHookRecorder()
	DMCImp(hooksMatrix(), FromPercent(60), Options{Hooks: h, SingleScan: true})
	if got := rec.phases["imp"]; len(got) != 2 || got[1] != "lt" {
		t.Fatalf("single-scan phases = %v", got)
	}

	// The ablation holds at every worker count: no 100% phase runs.
	for _, workers := range []int{1, 3} {
		for fam, mine := range map[string]func(Options){
			"imp": func(o Options) { DMCImpParallel(hooksMatrix(), FromPercent(60), o, workers) },
			"sim": func(o Options) { DMCSimParallel(hooksMatrix(), FromPercent(50), o, workers) },
		} {
			rec, h := newHookRecorder()
			mine(Options{Hooks: h, SingleScan: true})
			pipeline := fam
			if workers > 1 {
				pipeline += "-parallel"
			}
			if got := fmt.Sprint(rec.phases[pipeline]); got != "[prescan lt]" {
				t.Fatalf("%s workers %d single-scan phases = %s", fam, workers, got)
			}
			if st := rec.stats[pipeline]; st.Phase100 != 0 {
				t.Fatalf("%s workers %d single-scan Phase100 = %v", fam, workers, st.Phase100)
			}
		}
	}
}

func TestHooksBitmapSwitch(t *testing.T) {
	rec, h := newHookRecorder()
	// Force the bitmap switch on from the start: every remaining-row
	// count is within range once the byte floor is disabled.
	_, st := DMCImp(hooksMatrix(), FromPercent(60), Options{
		Hooks: h, BitmapMaxRows: 1 << 20, BitmapMinBytes: -1,
	})
	if st.SwitchPos100 < 0 && st.SwitchPosLT < 0 {
		t.Skip("bitmap switch did not trigger")
	}
	if rec.switches == 0 {
		t.Fatal("OnBitmapSwitch not fired despite a recorded switch position")
	}
}

func TestHooksParallel(t *testing.T) {
	rec, h := newHookRecorder()
	rs, _ := DMCImpParallel(hooksMatrix(), FromPercent(60), Options{Hooks: h}, 3)
	if got := rec.phases["imp-parallel"]; len(got) != 3 {
		t.Fatalf("imp-parallel phases = %v", got)
	}
	if rec.stats["imp-parallel"].NumRules != len(rs) {
		t.Fatalf("OnStats rules = %d, want %d", rec.stats["imp-parallel"].NumRules, len(rs))
	}

	rec, h = newHookRecorder()
	DMCSimParallel(hooksMatrix(), FromPercent(50), Options{Hooks: h}, 2)
	if got := rec.phases["sim-parallel"]; len(got) != 3 {
		t.Fatalf("sim-parallel phases = %v", got)
	}

	// One worker is the serial pipeline and carries its label.
	rec, h = newHookRecorder()
	DMCImpParallel(hooksMatrix(), FromPercent(60), Options{Hooks: h}, 1)
	if got := rec.phases["imp"]; len(got) != 3 || len(rec.phases) != 1 {
		t.Fatalf("workers=1 phases = %v", rec.phases)
	}
}

func TestHooksNilSafe(t *testing.T) {
	var h *Hooks
	h.emitPhase("imp", "lt", time.Second)
	h.emitSwitch("imp", "lt", 3)
	h.emitStats("imp", Stats{})
	partial := &Hooks{}
	partial.emitPhase("imp", "lt", time.Second)
	partial.emitStats("imp", Stats{})
	// And a full run with no hooks at all must still work.
	if rs, _ := DMCImp(hooksMatrix(), FromPercent(60), Options{}); len(rs) == 0 {
		t.Fatal("no rules mined")
	}
}
