package core

import (
	"time"

	"dmc/internal/bitset"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// imp100Scan is the simplified DMC-base of §4.3 for 100%-confidence
// rules: no miss counters are needed, because a single miss kills a
// candidate. A column's candidate list is created at its first 1 (after
// which nothing can ever join it) and thereafter intersected with every
// row the column appears in; whatever survives the column's last 1 is a
// 100%-confidence rule. List entries are bare ids (4 bytes each in the
// paper's memory model). alive, when non-nil, masks out support-pruned
// columns; owned, when non-nil, restricts antecedents to the worker's
// columns (parallel pipeline); share, when non-nil, is the shared
// tail-bitmap coordinator.
func imp100Scan(rows Rows, mcols int, ones []int, alive, owned colMask, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Implication)) {
	rk := ranker{ones}
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
			imp100Bitmap(rows, pos, mcols, ones, alive, owned, cnt, cand, hasList, released, rk, share, mem, st, emit)
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
				// Pessimistic len(row) sizing (as a heap make would
				// use): the 3-index carve strands at most the same
				// capacity HEAD's make(0, len(row)) did, without the
				// allocation.
				lst := ar.alloc(len(row))
				for _, ck := range row {
					if rk.less(cj, ck) {
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
					emit(rules.Implication{From: cj, To: ck, Hits: ones[cj], Ones: ones[cj]})
				}
				mem.remove(len(cand[cj]), entryBytes100)
				cand[cj] = nil
				released[cj] = true
			}
		}
		mem.snapshot(pos)
	}
}

// intersectIDs keeps only the candidates present in the row: any absent
// candidate has missed once, which at 100% confidence is fatal.
func intersectIDs(lst, row []matrix.Col, mem *memMeter, st *Stats) []matrix.Col {
	out := lst[:0]
	j := 0
	for _, ck := range lst {
		for j < len(row) && row[j] < ck {
			j++
		}
		if j < len(row) && row[j] == ck {
			out = append(out, ck)
		}
	}
	deleted := len(lst) - len(out)
	st.CandidatesDeleted += deleted
	mem.remove(deleted, entryBytes100)
	return out
}

// imp100Bitmap is the simplified DMC-bitmap of §4.3. Phase 1: a listed
// candidate survives iff the column's tail rows are a subset of the
// candidate's (no tail miss), decided by one blocked AndNotCountMany
// sweep per column. Phase 2 covers columns whose first 1 lies in the
// tail: every one of their rows must contain the consequent.
func imp100Bitmap(rows Rows, pos, mcols int, ones []int, alive, owned colMask, cnt []int, cand [][]matrix.Col, hasList, released []bool, rk ranker, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Implication)) {
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
		counts := tc.missesIDs(bmj, cand[cj], bms)
		for k, ck := range cand[cj] {
			if counts[k] == 0 {
				emit(rules.Implication{From: matrix.Col(cj), To: ck, Hits: ones[cj], Ones: ones[cj]})
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
		// cnt is 0: all of cj's 1s are in the tail.
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
			if h == ones[cj] && rk.less(matrix.Col(cj), ck) {
				emit(rules.Implication{From: matrix.Col(cj), To: ck, Hits: h, Ones: ones[cj]})
			}
		}
	}
}
