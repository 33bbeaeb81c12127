package core

import (
	"time"

	"dmc/internal/bitset"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// simScan runs the DMC-base variant for similarity rules (step 4 of
// Algorithm 5.1) over one pass of rows, switching to the DMC-bitmap
// variant like the implication scan does.
//
// Per §5 and footnote 1, the pair (ci, cj) with rank(ci) < rank(cj)
// lives on ci's candidate list and its counter tracks only the
// one-sided misses (rows where ci is 1 and cj is not). That is exact:
// when ci's last 1 is seen, hits = ones(ci) − misses and ones(cj) is
// known, so the similarity is fully determined. Each pair has its own
// miss budget Threshold.MaxMissesSim(ones_i, ones_j):
//
//   - a negative budget is the column-density pruning of §5.1 (the pair
//     is never created);
//   - the maximum-hits pruning of §5.2 deletes a candidate whenever
//     hits-so-far + min(rem_i, rem_j) cannot reach the hit floor.
//
// Every pair with Sim ≥ t whose smaller column is alive and owned is
// emitted exactly once, including identical pairs (DMC-sim filters
// those when this runs as its second phase). share, when non-nil, is
// the parallel pipelines' shared tail-bitmap coordinator.
func simScan(rows Rows, mcols int, ones []int, alive, owned colMask, t Threshold, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Similarity)) {
	rk := ranker{ones}
	// colMax(c) is the largest budget any partner of c can offer (the
	// partner with equal ones); past it the column stops admitting
	// candidates, mirroring cnt > maxmis for implications.
	colMax := make([]int, mcols)
	for c := 0; c < mcols; c++ {
		colMax[c] = t.MaxMissesSim(ones[c], ones[c])
	}
	cnt := make([]int, mcols)
	cand := make([][]candEntry, mcols)
	hasList := make([]bool, mcols)
	released := make([]bool, mcols)
	ar := newArena[candEntry](arenaBlockEntries)

	budget := func(cj, ck matrix.Col) int {
		return t.MaxMissesSim(ones[cj], ones[ck])
	}
	// maxHitsOK reports whether the pair can still reach its hit floor:
	// the §5.2 bound with pre-row counts, as in Example 5.1.
	maxHitsOK := func(cj, ck matrix.Col, miss int) bool {
		hits := cnt[cj] - miss
		remJ, remK := ones[cj]-cnt[cj], ones[ck]-cnt[ck]
		rem := remJ
		if remK < rem {
			rem = remK
		}
		return hits+rem >= t.MinHitsSim(ones[cj], ones[ck])
	}

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
			simBitmap(rows, pos, mcols, ones, alive, owned, t, colMax, cnt, cand, hasList, released, rk, share, mem, st, emit)
			st.Bitmap += time.Since(start)
			if st.SwitchPosLT < 0 {
				st.SwitchPosLT = pos
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
					if rk.less(cj, ck) && budget(cj, ck) >= 0 && maxHitsOK(cj, ck, 0) {
						lst = append(lst, candEntry{ck, 0})
					}
				}
				cand[cj] = lst
				hasList[cj] = true
				st.CandidatesAdded += len(lst)
				mem.add(len(lst), entryBytes)
			case cnt[cj] <= colMax[cj]:
				cand[cj] = simMergeOpen(ar, cand[cj], row, cj, cnt[cj], rk, budget, maxHitsOK, mem, st)
			default:
				cand[cj] = simMergeClosed(cand[cj], row, cj, budget, maxHitsOK, mem, st)
			}
		}
		for _, cj := range row {
			cnt[cj]++
			if cnt[cj] == ones[cj] {
				for _, e := range cand[cj] {
					emit(rules.Similarity{A: cj, B: e.col, Hits: ones[cj] - int(e.miss), OnesA: ones[cj], OnesB: ones[e.col]})
				}
				mem.remove(len(cand[cj]), entryBytes)
				cand[cj] = nil
				released[cj] = true
			}
		}
		mem.snapshot(pos)
	}
}

// simMergeOpen is mergeOpen for similarity candidate lists: per-pair
// miss budgets and the §5.2 maximum-hits deletion replace the single
// column budget. Like mergeOpen it compacts in place until the first
// insertion, then makes room once via shiftTail and finishes on the
// slow path, so the steady state never allocates.
func simMergeOpen(ar *arena[candEntry], lst []candEntry, row []matrix.Col, cj matrix.Col, cntj int, rk ranker, budget func(matrix.Col, matrix.Col) int, maxHitsOK func(matrix.Col, matrix.Col, int) bool, mem *memMeter, st *Stats) []candEntry {
	out := lst[:0]
	deleted := 0
	i, j := 0, 0
	for i < len(lst) || j < len(row) {
		switch {
		case j >= len(row) || (i < len(lst) && lst[i].col < row[j]):
			e := lst[i]
			i++
			if !maxHitsOK(cj, e.col, int(e.miss)) {
				deleted++
				continue
			}
			e.miss++
			if int(e.miss) > budget(cj, e.col) {
				deleted++
				continue
			}
			out = append(out, e)
		case i >= len(lst) || row[j] < lst[i].col:
			ck := row[j]
			if rk.less(cj, ck) && cntj <= budget(cj, ck) && maxHitsOK(cj, ck, cntj) {
				return simMergeOpenInsert(ar, lst, out, row, i, j, cj, cntj, rk, budget, maxHitsOK, deleted, mem, st)
			}
			j++
		default: // hit
			e := lst[i]
			i++
			j++
			if !maxHitsOK(cj, e.col, int(e.miss)) {
				deleted++
				continue
			}
			out = append(out, e)
		}
	}
	st.CandidatesDeleted += deleted
	mem.remove(deleted, entryBytes)
	return out
}

// simMergeOpenInsert finishes a simMergeOpen from the first insertion
// point: row[j] is a new candidate not yet consumed, lst[i:] the unread
// suffix, out the compacted prefix.
func simMergeOpenInsert(ar *arena[candEntry], lst, out []candEntry, row []matrix.Col, i, j int, cj matrix.Col, cntj int, rk ranker, budget func(matrix.Col, matrix.Col) int, maxHitsOK func(matrix.Col, matrix.Col, int) bool, deleted int, mem *memMeter, st *Stats) []candEntry {
	added := 0
	for ii, jj := i, j; jj < len(row); jj++ {
		ck := row[jj]
		for ii < len(lst) && lst[ii].col < ck {
			ii++
		}
		if (ii == len(lst) || lst[ii].col != ck) &&
			rk.less(cj, ck) && cntj <= budget(cj, ck) && maxHitsOK(cj, ck, cntj) {
			added++
		}
	}
	out, src := shiftTail(ar, lst, out, i, added)
	si := 0
	for si < len(src) || j < len(row) {
		switch {
		case j >= len(row) || (si < len(src) && src[si].col < row[j]):
			e := src[si]
			si++
			if !maxHitsOK(cj, e.col, int(e.miss)) {
				deleted++
				continue
			}
			e.miss++
			if int(e.miss) > budget(cj, e.col) {
				deleted++
				continue
			}
			out = append(out, e)
		case si >= len(src) || row[j] < src[si].col:
			ck := row[j]
			j++
			if rk.less(cj, ck) && cntj <= budget(cj, ck) && maxHitsOK(cj, ck, cntj) {
				out = append(out, candEntry{ck, int32(cntj)})
			}
		default: // hit
			e := src[si]
			si++
			j++
			if !maxHitsOK(cj, e.col, int(e.miss)) {
				deleted++
				continue
			}
			out = append(out, e)
		}
	}
	st.CandidatesAdded += added
	st.CandidatesDeleted += deleted
	mem.add(added, entryBytes)
	mem.remove(deleted, entryBytes)
	return out
}

func simMergeClosed(lst []candEntry, row []matrix.Col, cj matrix.Col, budget func(matrix.Col, matrix.Col) int, maxHitsOK func(matrix.Col, matrix.Col, int) bool, mem *memMeter, st *Stats) []candEntry {
	out := lst[:0]
	deleted := 0
	j := 0
	for _, e := range lst {
		for j < len(row) && row[j] < e.col {
			j++
		}
		if !maxHitsOK(cj, e.col, int(e.miss)) {
			deleted++
			continue
		}
		if j < len(row) && row[j] == e.col {
			out = append(out, e) // hit
			continue
		}
		e.miss++
		if int(e.miss) > budget(cj, e.col) {
			deleted++
			continue
		}
		out = append(out, e)
	}
	st.CandidatesDeleted += deleted
	mem.remove(deleted, entryBytes)
	return out
}

// simBitmap is the DMC-bitmap variant for the similarity scan: direct
// tail-hit counting through the blocked AndCountMany kernel for closed
// columns (hits = pre-switch hits cnt − miss plus tail co-occurrences —
// one fused sweep instead of deriving hits from a separate miss count),
// tail hit counting for columns that could still admit candidates; both
// decide with the exact pair hit floor.
func simBitmap(rows Rows, pos, mcols int, ones []int, alive, owned colMask, t Threshold, colMax, cnt []int, cand [][]candEntry, hasList, released []bool, rk ranker, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Similarity)) {
	tail, bms := share.get(rows, pos, mcols, alive, st)
	empty := bitset.New(len(tail))
	var tc tailCounter

	for cj := 0; cj < mcols; cj++ {
		if !hasList[cj] || released[cj] || cnt[cj] <= colMax[cj] {
			continue
		}
		bmj := bms[cj]
		if bmj == nil {
			bmj = empty
		}
		tailHit := tc.hits(bmj, cand[cj], bms)
		for k, e := range cand[cj] {
			h := cnt[cj] - int(e.miss) + tailHit[k]
			if h >= t.MinHitsSim(ones[cj], ones[e.col]) {
				emit(rules.Similarity{A: matrix.Col(cj), B: e.col, Hits: h, OnesA: ones[cj], OnesB: ones[e.col]})
			}
		}
		mem.remove(len(cand[cj]), entryBytes)
		cand[cj] = nil
	}

	for cj := 0; cj < mcols; cj++ {
		if released[cj] || ones[cj] == 0 || cnt[cj] > colMax[cj] ||
			!alive.has(cj) || !owned.has(cj) {
			continue
		}
		hits := make(map[matrix.Col]int, len(cand[cj]))
		for _, e := range cand[cj] {
			hits[e.col] = cnt[cj] - int(e.miss)
		}
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
			if rk.less(matrix.Col(cj), ck) && h >= t.MinHitsSim(ones[cj], ones[ck]) {
				emit(rules.Similarity{A: matrix.Col(cj), B: ck, Hits: h, OnesA: ones[cj], OnesB: ones[ck]})
			}
		}
		mem.remove(len(cand[cj]), entryBytes)
		cand[cj] = nil
	}
}
