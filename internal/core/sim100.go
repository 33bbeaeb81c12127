package core

import (
	"time"

	"dmc/internal/bitset"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// sim100Scan extracts 100%-similar — i.e. identical — column pairs
// (step 2 of Algorithm 5.1). Only columns with the same number of 1s
// can be identical, so candidate lists hold just the equal-count,
// higher-id columns of the first row a column appears in, and a single
// miss kills a candidate. Entries are bare ids (4 bytes). alive, when
// non-nil, masks out support-pruned columns; owned, when non-nil,
// restricts which columns act as the pair's smaller member (parallel
// pipeline); share, when non-nil, is the shared tail-bitmap
// coordinator.
func sim100Scan(rows Rows, mcols int, ones []int, alive, owned colMask, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Similarity)) {
	cnt := make([]int, mcols)
	cand := make([][]matrix.Col, mcols)
	hasList := make([]bool, mcols)
	released := make([]bool, mcols)
	ar := newArena[matrix.Col](arenaBlockEntries)

	bmMaxRows, bmMinBytes := opts.effectiveBitmap()
	rowBuf := make([]matrix.Col, 0, 256)
	var ownBuf []matrix.Col
	n := rows.Len()
	for pos := 0; pos < n; pos++ {
		if pos&interruptStride == 0 {
			opts.checkInterrupt(mem, n-pos, bmMaxRows)
		}
		if !opts.DisableBitmap && n-pos <= bmMaxRows && mem.bytes > bmMinBytes {
			start := time.Now()
			sim100Bitmap(rows, pos, mcols, ones, alive, owned, cnt, cand, hasList, released, share, mem, st, emit)
			st.Bitmap += time.Since(start)
			if st.SwitchPos100 < 0 {
				st.SwitchPos100 = pos
			}
			return
		}
		row := alive.cols(rows.Row(pos), &rowBuf)
		for _, cj := range owned.cols(row, &ownBuf) {
			switch {
			case released[cj]:
			case !hasList[cj]:
				lst := ar.alloc(len(row))
				for _, ck := range row {
					if ck > cj && ones[ck] == ones[cj] {
						lst = append(lst, ck)
					}
				}
				cand[cj] = lst
				hasList[cj] = true
				st.CandidatesAdded += len(lst)
				mem.add(len(lst), entryBytes100)
			default:
				cand[cj] = intersectIDs(cand[cj], row, mem, st)
			}
		}
		for _, cj := range row {
			cnt[cj]++
			if cnt[cj] == ones[cj] {
				for _, ck := range cand[cj] {
					emit(rules.Similarity{A: cj, B: ck, Hits: ones[cj], OnesA: ones[cj], OnesB: ones[ck]})
				}
				mem.remove(len(cand[cj]), entryBytes100)
				cand[cj] = nil
				released[cj] = true
			}
		}
		mem.snapshot(pos)
	}
}

// sim100Bitmap finishes the identical-column phase over the tail rows:
// a listed candidate survives iff its tail bitmap equals the column's
// (the paper's "extract those column pairs that have the same bitmap");
// columns first appearing in the tail pair up when their tail
// co-occurrence count equals their full count.
//
// Bitmap equality is decided without per-pair Equal sweeps: one blocked
// AndNotCountMany pass per column gives |bm(cj) ∧ ¬bm(ck)| for the
// whole candidate list, and zero tail misses means bm(cj) ⊆ bm(ck);
// adding equal tail popcounts — ones(c) − cnt(c) for both, already on
// hand from the scan — upgrades the subset to equality. That turns the
// phase from two full re-streams of bm(cj) per candidate pair into a
// single streamed sweep per column.
func sim100Bitmap(rows Rows, pos, mcols int, ones []int, alive, owned colMask, cnt []int, cand [][]matrix.Col, hasList, released []bool, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Similarity)) {
	tail, bms := share.get(rows, pos, mcols, alive, st)
	empty := bitset.New(len(tail))
	var tc tailCounter
	for cj := 0; cj < mcols; cj++ {
		if !hasList[cj] || released[cj] {
			continue
		}
		bmj := bms[cj]
		if bmj == nil {
			bmj = empty
		}
		tailMiss := tc.missesIDs(bmj, cand[cj], bms)
		for k, ck := range cand[cj] {
			if tailMiss[k] == 0 && ones[cj]-cnt[cj] == ones[ck]-cnt[ck] {
				emit(rules.Similarity{A: matrix.Col(cj), B: ck, Hits: ones[cj], OnesA: ones[cj], OnesB: ones[ck]})
			}
		}
		mem.remove(len(cand[cj]), entryBytes100)
		cand[cj] = nil
	}
	for cj := 0; cj < mcols; cj++ {
		if hasList[cj] || released[cj] || ones[cj] == 0 ||
			!alive.has(cj) || !owned.has(cj) {
			continue
		}
		hits := make(map[matrix.Col]int)
		if bmj := bms[cj]; bmj != nil {
			for _, o := range bmj.Indices() {
				for _, ck := range tail[o] {
					if ck != matrix.Col(cj) {
						hits[ck]++
					}
				}
			}
		}
		for ck, h := range hits {
			if ck > matrix.Col(cj) && ones[ck] == ones[cj] && h == ones[cj] {
				emit(rules.Similarity{A: matrix.Col(cj), B: ck, Hits: h, OnesA: ones[cj], OnesB: ones[ck]})
			}
		}
	}
}
