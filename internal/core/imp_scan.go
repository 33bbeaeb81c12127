package core

import (
	"time"

	"dmc/internal/bitset"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// candEntry is one candidate consequent on a column's list: the
// candidate column id plus its running miss counter. In the paper's
// memory model it costs 8 bytes (entryBytes).
type candEntry struct {
	col  matrix.Col
	miss int32
}

// ranker orders columns by (ones, id): the canonical antecedent /
// consequent orientation of §2. less(a,b) reports that a may be an
// antecedent of b.
type ranker struct{ ones []int }

func (r ranker) less(a, b matrix.Col) bool {
	oa, ob := r.ones[a], r.ones[b]
	return oa < ob || (oa == ob && a < b)
}

// impScan runs the general DMC-base scan (Algorithm 3.1) for
// implication rules over one pass of rows, switching to DMC-bitmap
// (Algorithm 4.1) when the remaining rows fit the bitmap budget and the
// counter array has grown past the threshold.
//
// alive, when non-nil, masks out columns removed by the step-3 cutoff;
// masked columns neither open candidate lists nor appear as candidates.
// owned, when non-nil, restricts which columns act as antecedents —
// the column-partitioning hook used by the parallel pipeline; a
// non-owned column can still appear as a consequent. share, when
// non-nil, is the parallel pipelines' shared tail-bitmap coordinator.
// Every rule with confidence ≥ t whose antecedent is alive and owned is
// emitted exactly once (including 100%-confidence ones; DMC-imp filters
// those out when this scan runs as its second phase).
func impScan(rows Rows, mcols int, ones []int, alive, owned colMask, t Threshold, opts Options, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Implication)) {
	rk := ranker{ones}
	maxmis := make([]int, mcols)
	for c := 0; c < mcols; c++ {
		maxmis[c] = t.MaxMissesConf(ones[c])
	}
	cnt := make([]int, mcols)
	cand := make([][]candEntry, mcols)
	hasList := make([]bool, mcols)
	released := make([]bool, mcols)
	ar := newArena[candEntry](arenaBlockEntries)

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
			impBitmap(rows, pos, mcols, ones, alive, owned, maxmis, cnt, cand, hasList, released, rk, share, mem, st, emit)
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
				// Released columns have all their 1s behind them.
			case !hasList[cj]:
				// First 1 of cj (cnt is 0): every higher-rank column of
				// this row becomes a candidate with zero misses. Sized
				// pessimistically at len(row); the carve caps capacity
				// so the strand cannot bleed into later lists.
				lst := ar.alloc(len(row))
				for _, ck := range row {
					if rk.less(cj, ck) {
						lst = append(lst, candEntry{ck, 0})
					}
				}
				cand[cj] = lst
				hasList[cj] = true
				st.CandidatesAdded += len(lst)
				mem.add(len(lst), entryBytes)
			case cnt[cj] <= maxmis[cj]:
				cand[cj] = mergeOpen(ar, cand[cj], row, cj, cnt[cj], maxmis[cj], rk, mem, st)
			default:
				cand[cj] = mergeClosed(cand[cj], row, maxmis[cj], mem, st)
			}
		}
		for _, cj := range row {
			cnt[cj]++
			if cnt[cj] == ones[cj] {
				// Last 1 of cj: everything still on its list meets the
				// threshold (misses are bounded by maxmis eagerly).
				for _, e := range cand[cj] {
					emit(rules.Implication{From: cj, To: e.col, Hits: ones[cj] - int(e.miss), Ones: ones[cj]})
				}
				mem.remove(len(cand[cj]), entryBytes)
				cand[cj] = nil
				released[cj] = true
			}
		}
		mem.snapshot(pos)
	}
}

// shiftTail makes room for a merge that has compacted lst[:i] into out
// (out aliases lst's front, len(out) ≤ i) and now must insert `added`
// more entries among the unread suffix lst[i:]. The suffix is
// relocated to the back of a buffer sized for the upper bound
// len(out)+rem+added — lst itself when its capacity suffices, otherwise
// an at-least-doubled arena carve (so a list's backing moves O(log)
// times over its lifetime and the steady state never allocates). The
// caller resumes writing at len(res) and reading src from its front;
// the write position can never pass the unread entries: writes ≤
// len(out) + added + suffix-consumed = src start + suffix-consumed.
// copy is memmove-safe in the aliased case for either shift direction.
func shiftTail(ar *arena[candEntry], lst, out []candEntry, i, added int) (res, src []candEntry) {
	rem := len(lst) - i
	need := len(out) + rem + added
	var buf []candEntry
	if cap(lst) < need {
		grown := 2 * cap(lst)
		if grown < need {
			grown = need
		}
		buf = ar.alloc(grown)[:need]
		copy(buf, out)
	} else {
		buf = lst[:need]
	}
	src = buf[need-rem:]
	copy(src, lst[i:])
	return buf[:len(out)], src
}

// mergeOpen handles the cnt ≤ maxmis case of Algorithm 3.1: walk the
// candidate list and the row together; columns only in the row join the
// list with cnt pre-counted misses, candidates absent from the row take
// a miss (and are deleted if they overflow the budget — see DESIGN.md
// §3 on why the delete also applies here).
//
// The merge compacts in place until the first insertion — deletions
// only shrink, so writes cannot overtake reads — and only then counts
// the remaining additions, makes room once via shiftTail, and finishes
// on the slow path. Insertions are rare in steady state (a candidate
// must be brand new for cj), so the common case is one allocation-free
// pass.
func mergeOpen(ar *arena[candEntry], lst []candEntry, row []matrix.Col, cj matrix.Col, cntj, maxmisj int, rk ranker, mem *memMeter, st *Stats) []candEntry {
	out := lst[:0]
	deleted := 0
	i, j := 0, 0
	for i < len(lst) || j < len(row) {
		switch {
		case j >= len(row) || (i < len(lst) && lst[i].col < row[j]):
			e := lst[i]
			i++
			e.miss++
			if int(e.miss) > maxmisj {
				deleted++
				continue
			}
			out = append(out, e)
		case i >= len(lst) || row[j] < lst[i].col:
			if rk.less(cj, row[j]) {
				return mergeOpenInsert(ar, lst, out, row, i, j, cj, cntj, maxmisj, rk, deleted, mem, st)
			}
			j++
		default: // present on both sides: a hit, no counter change
			out = append(out, lst[i])
			i++
			j++
		}
	}
	st.CandidatesDeleted += deleted
	mem.remove(deleted, entryBytes)
	return out
}

// mergeOpenInsert finishes a mergeOpen from the first insertion point:
// row[j] is a new candidate not yet consumed, lst[i:] is the unread
// suffix, out the compacted prefix.
func mergeOpenInsert(ar *arena[candEntry], lst, out []candEntry, row []matrix.Col, i, j int, cj matrix.Col, cntj, maxmisj int, rk ranker, deleted int, mem *memMeter, st *Stats) []candEntry {
	added := 0
	for ii, jj := i, j; jj < len(row); jj++ {
		ck := row[jj]
		for ii < len(lst) && lst[ii].col < ck {
			ii++
		}
		if (ii == len(lst) || lst[ii].col != ck) && rk.less(cj, ck) {
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
			e.miss++
			if int(e.miss) > maxmisj {
				deleted++
				continue
			}
			out = append(out, e)
		case si >= len(src) || row[j] < src[si].col:
			ck := row[j]
			j++
			if rk.less(cj, ck) {
				out = append(out, candEntry{ck, int32(cntj)})
			}
		default:
			out = append(out, src[si])
			si++
			j++
		}
	}
	st.CandidatesAdded += added
	st.CandidatesDeleted += deleted
	mem.add(added, entryBytes)
	mem.remove(deleted, entryBytes)
	return out
}

// mergeClosed handles the cnt > maxmis case: no additions are possible,
// so compact the list in place, bumping (and possibly deleting)
// candidates absent from the row.
func mergeClosed(lst []candEntry, row []matrix.Col, maxmisj int, mem *memMeter, st *Stats) []candEntry {
	out := lst[:0]
	deleted := 0
	j := 0
	for _, e := range lst {
		for j < len(row) && row[j] < e.col {
			j++
		}
		if j < len(row) && row[j] == e.col {
			out = append(out, e) // hit
			continue
		}
		e.miss++
		if int(e.miss) > maxmisj {
			deleted++
			continue
		}
		out = append(out, e)
	}
	st.CandidatesDeleted += deleted
	mem.remove(deleted, entryBytes)
	return out
}

// tailCounter batches the phase-1 counts of a bitmap phase through the
// blocked bitset.AndNotCountMany / AndCountMany kernels, reusing its
// scratch across columns. nil bitmaps (columns absent from the tail)
// are passed through — the kernels treat them as empty sets.
type tailCounter struct {
	targets []*bitset.Set
	counts  []int
}

// scratch sizes the count buffer for n staged targets.
func (tc *tailCounter) scratch(n int) {
	if cap(tc.counts) < n {
		tc.counts = make([]int, n)
	}
	tc.counts = tc.counts[:n]
}

// misses returns, for each candidate on lst, |bmj ∧ ¬bm(cand)| over the
// tail rows. The returned slice is valid until the next call.
func (tc *tailCounter) misses(bmj *bitset.Set, lst []candEntry, bms []*bitset.Set) []int {
	tc.targets = tc.targets[:0]
	for _, e := range lst {
		tc.targets = append(tc.targets, bms[e.col])
	}
	tc.scratch(len(tc.targets))
	bmj.AndNotCountMany(tc.targets, tc.counts)
	return tc.counts
}

// hits returns, for each candidate on lst, |bmj ∧ bm(cand)| over the
// tail rows — the direct hit count the sim bitmap phase needs, from the
// same single blocked sweep. The returned slice is valid until the next
// call.
func (tc *tailCounter) hits(bmj *bitset.Set, lst []candEntry, bms []*bitset.Set) []int {
	tc.targets = tc.targets[:0]
	for _, e := range lst {
		tc.targets = append(tc.targets, bms[e.col])
	}
	tc.scratch(len(tc.targets))
	bmj.AndCountMany(tc.targets, tc.counts)
	return tc.counts
}

// missesIDs is misses for the bare-id candidate lists of the 100%-rule
// phases.
func (tc *tailCounter) missesIDs(bmj *bitset.Set, lst []matrix.Col, bms []*bitset.Set) []int {
	tc.targets = tc.targets[:0]
	for _, ck := range lst {
		tc.targets = append(tc.targets, bms[ck])
	}
	tc.scratch(len(tc.targets))
	bmj.AndNotCountMany(tc.targets, tc.counts)
	return tc.counts
}

// impBitmap is DMC-bitmap (Algorithm 4.1): materialize the remaining
// rows as one bitmap per live column, then decide every still-open rule
// with bitwise counting.
//
// Phase 1 covers columns that can no longer accept candidates
// (cnt > maxmis): each listed candidate's total misses are its counter
// plus the tail misses |bm(cj) ∧ ¬bm(ck)|, batched per column through
// the blocked AndNotCountMany kernel.
//
// Phase 2 covers columns that still could (cnt ≤ maxmis): hit counters
// seeded from the candidate list (hits so far = cnt − miss) plus
// co-occurrences in the tail rows of cj; any higher-rank column reaching
// ones(cj) − maxmis(cj) hits is a rule. Columns not on the list have
// zero pre-switch hits by the list-completeness invariant, so seeding
// only from the list is exact.
func impBitmap(rows Rows, pos, mcols int, ones []int, alive, owned colMask, maxmis, cnt []int, cand [][]candEntry, hasList, released []bool, rk ranker, share *tailShare, mem *memMeter, st *Stats, emit func(rules.Implication)) {
	tail, bms := share.get(rows, pos, mcols, alive, st)
	empty := bitset.New(len(tail))
	var tc tailCounter

	// Phase 1: closed columns.
	for cj := 0; cj < mcols; cj++ {
		if !hasList[cj] || released[cj] || cnt[cj] <= maxmis[cj] {
			continue
		}
		bmj := bms[cj]
		if bmj == nil {
			bmj = empty
		}
		tailMiss := tc.misses(bmj, cand[cj], bms)
		for k, e := range cand[cj] {
			total := int(e.miss) + tailMiss[k]
			if total <= maxmis[cj] {
				emit(rules.Implication{From: matrix.Col(cj), To: e.col, Hits: ones[cj] - total, Ones: ones[cj]})
			}
		}
		mem.remove(len(cand[cj]), entryBytes)
		cand[cj] = nil
	}

	// Phase 2: columns that could still accept candidates.
	for cj := 0; cj < mcols; cj++ {
		if released[cj] || ones[cj] == 0 || cnt[cj] > maxmis[cj] ||
			!alive.has(cj) || !owned.has(cj) {
			continue
		}
		needed := ones[cj] - maxmis[cj]
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
			if h >= needed && rk.less(matrix.Col(cj), ck) {
				emit(rules.Implication{From: matrix.Col(cj), To: ck, Hits: h, Ones: ones[cj]})
			}
		}
		mem.remove(len(cand[cj]), entryBytes)
		cand[cj] = nil
	}
}

// tailBitmaps reads the remaining rows rows[pos:] (masked by alive) and
// returns copies of them along with a lazily-allocated bitmap per
// column that appears in them, indexed by tail offset, plus the bytes
// materialized (tail cells + bitmap payloads — the figure tailShare
// de-duplicates across workers). Rows are copied because Rows
// implementations may reuse their row buffers.
func tailBitmaps(rows Rows, pos, mcols int, alive colMask) ([][]matrix.Col, []*bitset.Set, int) {
	rem := rows.Len() - pos
	tail := make([][]matrix.Col, rem)
	bms := make([]*bitset.Set, mcols)
	bytes := 0
	var buf []matrix.Col
	for o := 0; o < rem; o++ {
		row := alive.cols(rows.Row(pos+o), &buf)
		tail[o] = append([]matrix.Col(nil), row...)
		bytes += 4 * len(row)
		for _, c := range row {
			if bms[c] == nil {
				bms[c] = bitset.New(rem)
				bytes += bms[c].Bytes()
			}
			bms[c].Set(o)
		}
	}
	return tail, bms, bytes
}
