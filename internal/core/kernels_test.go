package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dmc/internal/matrix"
)

// Model-based tests for the candidate-list merge kernels: each kernel
// is replayed against a straightforward map model of Algorithm 3.1's
// case analysis.

func sortedCols(rng *rand.Rand, max int) []matrix.Col {
	var out []matrix.Col
	for c := 0; c < max; c++ {
		if rng.Float64() < 0.4 {
			out = append(out, matrix.Col(c))
		}
	}
	return out
}

func randomList(rng *rand.Rand, max, maxMiss int) []candEntry {
	var out []candEntry
	for c := 0; c < max; c++ {
		if rng.Float64() < 0.4 {
			out = append(out, candEntry{matrix.Col(c), int32(rng.Intn(maxMiss + 1))})
		}
	}
	return out
}

func listToMap(lst []candEntry) map[matrix.Col]int32 {
	m := make(map[matrix.Col]int32, len(lst))
	for _, e := range lst {
		m[e.col] = e.miss
	}
	return m
}

func mapToList(m map[matrix.Col]int32) []candEntry {
	out := make([]candEntry, 0, len(m))
	for c, miss := range m {
		out = append(out, candEntry{c, miss})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].col < out[j].col })
	return out
}

func TestQuickMergeOpenModel(t *testing.T) {
	f := func(seed int64, cntRaw, maxMissRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const mcols = 20
		maxMiss := int(maxMissRaw) % 5
		cnt := int(cntRaw) % (maxMiss + 1) // the open case requires cnt <= maxmis
		ones := make([]int, mcols)
		for c := range ones {
			ones[c] = 1 + rng.Intn(10)
		}
		rk := ranker{ones}
		cj := matrix.Col(rng.Intn(mcols))
		lst := randomList(rng, mcols, maxMiss)
		// The list never contains cj or lower-ranked columns.
		filtered := lst[:0]
		for _, e := range lst {
			if rk.less(cj, e.col) {
				filtered = append(filtered, e)
			}
		}
		lst = append([]candEntry(nil), filtered...)
		row := sortedCols(rng, mcols)

		// Model: hits unchanged; misses bumped and dropped past budget;
		// new row columns of higher rank join with cnt misses.
		model := listToMap(lst)
		inRow := make(map[matrix.Col]bool, len(row))
		for _, c := range row {
			inRow[c] = true
		}
		for c, miss := range model {
			if !inRow[c] {
				if miss+1 > int32(maxMiss) {
					delete(model, c)
				} else {
					model[c] = miss + 1
				}
			}
		}
		for _, c := range row {
			if _, listed := listToMap(lst)[c]; !listed && rk.less(cj, c) {
				model[c] = int32(cnt)
			}
		}

		var st Stats
		mem := &memMeter{}
		got := mergeOpen(nil, lst, row, cj, cnt, maxMiss, rk, mem, &st)
		return reflect.DeepEqual(append([]candEntry{}, got...), mapToList(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeClosedModel(t *testing.T) {
	f := func(seed int64, maxMissRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const mcols = 20
		maxMiss := int(maxMissRaw) % 5
		lst := randomList(rng, mcols, maxMiss)
		row := sortedCols(rng, mcols)

		model := listToMap(lst)
		inRow := make(map[matrix.Col]bool, len(row))
		for _, c := range row {
			inRow[c] = true
		}
		for c, miss := range model {
			if !inRow[c] {
				if miss+1 > int32(maxMiss) {
					delete(model, c)
				} else {
					model[c] = miss + 1
				}
			}
		}

		var st Stats
		mem := &memMeter{}
		got := mergeClosed(append([]candEntry(nil), lst...), row, maxMiss, mem, &st)
		return reflect.DeepEqual(append([]candEntry{}, got...), mapToList(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectIDsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const mcols = 25
		lst := sortedCols(rng, mcols)
		row := sortedCols(rng, mcols)
		inRow := make(map[matrix.Col]bool, len(row))
		for _, c := range row {
			inRow[c] = true
		}
		var model []matrix.Col
		for _, c := range lst {
			if inRow[c] {
				model = append(model, c)
			}
		}
		var st Stats
		mem := &memMeter{}
		got := intersectIDs(append([]matrix.Col(nil), lst...), row, mem, &st)
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return st.CandidatesDeleted == len(lst)-len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemMeter(t *testing.T) {
	mm := &memMeter{sample: true}
	mm.add(3, 8)
	mm.add(2, 8)
	mm.snapshot(0)
	mm.remove(4, 8)
	mm.snapshot(1)
	if mm.bytes != 8 || mm.peak != 40 {
		t.Fatalf("bytes=%d peak=%d", mm.bytes, mm.peak)
	}
	if len(mm.samples) != 2 || mm.samples[0].Bytes != 40 || mm.samples[1].Bytes != 8 {
		t.Fatalf("samples = %v", mm.samples)
	}
	off := &memMeter{}
	off.add(1, 8)
	off.snapshot(0)
	if len(off.samples) != 0 {
		t.Fatal("sampling off but samples recorded")
	}
}

func TestOrderKindString(t *testing.T) {
	cases := map[OrderKind]string{
		OrderSparsestFirst: "sparsest-first",
		OrderOriginal:      "original",
		OrderDensestFirst:  "densest-first",
		OrderKind(99):      "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.bitmapMaxRows() != 64 {
		t.Errorf("default BitmapMaxRows = %d", o.bitmapMaxRows())
	}
	if o.bitmapMinBytes() != 50<<20 {
		t.Errorf("default BitmapMinBytes = %d", o.bitmapMinBytes())
	}
	if o.supportMask([]int{1, 2, 3}) != nil {
		t.Error("supportMask without MinSupport should be nil")
	}
	o.MinSupport = 2
	mask := o.supportMask([]int{1, 2, 3})
	if mask.has(0) || !mask.has(1) || !mask.has(2) {
		t.Errorf("supportMask = %v", mask)
	}
}
