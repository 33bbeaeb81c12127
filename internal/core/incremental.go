package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// Incremental is the resumable miss-counting state behind append-only
// dataset growth: per-column 1-counts plus one miss counter per
// candidate pair, kept for every pair that ever co-occurred instead of
// being deleted when it overflows its miss budget.
//
// Deletion is what makes plain DMC non-resumable. A candidate is
// dropped the moment its misses exceed maxmis(c) = ⌊(1−θ)·ones(c)⌋ —
// but appending rows grows ones(c), which grows the budget, and a pair
// pruned against the old budget can qualify under the new one. The
// information lost at deletion (the counter's final value) cannot be
// reconstructed without rescanning, so the resumable form of DMC-base
// runs with the deletion rule suspended: every pair that co-occurs at
// least once keeps its counter. Stored as hits = |S_a ∩ S_b| (misses
// for either orientation follow as ones − hits), one counter serves
// both rule families and every threshold, so a single snapshot per
// dataset answers all (threshold, minsupport, imp|sim) queries.
//
// The trade is memory: the state costs one counter-array entry (id +
// counter) per co-occurring pair — the a-priori pair-counter bill that
// DMC's pruning avoids (§3.1) — paid here to buy O(Δ·w² + pairs)
// appends and O(pairs) re-mines instead of O(n·w²) full scans.
// Appending Δ rows scans only those rows; deriving a rule set walks the
// counters once. Both are exact: the derived rules are identical to a
// full DMC (or naive) re-mine of the grown matrix. On wide sparse data
// the bill is the memory wall the paper exists to avoid, so a caller
// that holds this state checks PairBound first, from row weights alone,
// and keeps miss counting where the pairs would not fit.
//
// The counters are that array literally: two parallel slices, keys
// strictly increasing lo<<32|hi (lo < hi by id) and hits[i] =
// |S_lo ∩ S_hi| for keys[i]. A batch of appended rows is tallied in a
// scratch map, sorted once, and merged in one linear pass; the snapshot
// codec writes and reads the arrays in key order with no sort and no
// hashing, and Similarities comes out already in canonical order.
//
// The serving layer holds one Incremental per appended dataset and
// never mutates it: each append folds its batch into a copy (Folded),
// so mines derive from the held state while the next append builds its
// successor. AddRow, AddMatrixRows and Grow mutate in place and need
// exclusive access; Folded, Implications, Similarities and EncodeTo
// only read their receiver and may run concurrently.
type Incremental struct {
	cols int
	rows int
	ones []int
	keys []uint64 // strictly increasing lo<<32|hi, lo < hi by id
	hits []int32  // hits[i] = |S_lo ∩ S_hi| for keys[i]
}

// NewIncremental returns empty state over cols columns; AddRow grows
// the column space on demand, so 0 is a fine starting width.
func NewIncremental(cols int) *Incremental {
	if cols < 0 {
		panic("core: negative column count")
	}
	return &Incremental{cols: cols, ones: make([]int, cols)}
}

// BuildIncremental scans m once and returns its resumable state — the
// cold-start cost an append-only workload pays exactly once per
// dataset lineage.
func BuildIncremental(m *matrix.Matrix) *Incremental {
	inc := NewIncremental(m.NumCols())
	inc.AddMatrixRows(m, 0)
	return inc
}

func pairKey(a, b matrix.Col) uint64 { return uint64(a)<<32 | uint64(b) }

// Grow widens the column space to at least cols.
func (inc *Incremental) Grow(cols int) {
	if cols <= inc.cols {
		return
	}
	grown := make([]int, cols)
	copy(grown, inc.ones)
	inc.ones = grown
	inc.cols = cols
}

// AddRow folds one appended transaction into the state: w counter
// bumps for the row's 1s plus w·(w−1)/2 pair-hit bumps. The row must
// be strictly increasing (the matrix invariant); the column space
// grows to fit it.
func (inc *Incremental) AddRow(row []matrix.Col) {
	inc.fold(1, func(int) []matrix.Col { return row })
}

// AddMatrixRows folds rows [from, m.NumRows()) of m into the state —
// the append entry point when the grown matrix is already materialized.
func (inc *Incremental) AddMatrixRows(m *matrix.Matrix, from int) {
	inc.Grow(m.NumCols())
	inc.fold(m.NumRows()-from, func(i int) []matrix.Col { return m.Row(from + i) })
}

// Folded returns a copy of the state with rows [from, m.NumRows()) of
// m folded in, and leaves inc untouched. merge builds fresh key and hit
// arrays, so the copy shares nothing with inc but what it only reads;
// ones is the one array copied up front.
func (inc *Incremental) Folded(m *matrix.Matrix, from int) *Incremental {
	out := *inc
	out.ones = slices.Clone(inc.ones)
	out.AddMatrixRows(m, from)
	return &out
}

// PairBytes is what one pair counter holds: its uint64 key and its
// int32 hit count.
const PairBytes = 12

// PairBound bounds the pair counters of a state that holds held of them
// once rows [from, m.NumRows()) of m are folded in: held plus
// w(w−1)/2 for each of those rows' weights w, capped at the
// cols(cols−1)/2 pairs m's columns can form. It reads only row weights,
// so a caller can refuse counters that would not fit before building
// any: BuildIncremental(m) holds at most PairBound(m, 0, 0) pairs, and
// inc.Folded(m, from) at most PairBound(m, from, inc.Pairs()).
func PairBound(m *matrix.Matrix, from, held int) int64 {
	// Unsigned, so 0·(0−1) is 0 and no sum below the cap overflows: a
	// matrix has at most 2³² columns, so the cap is below 2⁶³.
	cols := uint64(m.NumCols())
	limit := cols * (cols - 1) / 2
	n := uint64(held)
	for i := from; i < m.NumRows() && n < limit; i++ {
		w := uint64(m.RowWeight(i))
		n += w * (w - 1) / 2
	}
	return int64(min(n, limit))
}

// fold adds the n rows row(0..n-1) as one batch: their pair bumps are
// tallied in a scratch map and merged into the sorted arrays once.
func (inc *Incremental) fold(n int, row func(int) []matrix.Col) {
	delta := make(map[uint64]int32)
	for i := 0; i < n; i++ {
		r := row(i)
		for j, c := range r {
			if j > 0 && r[j-1] >= c {
				panic(fmt.Sprintf("core: incremental row not strictly increasing at index %d", j))
			}
			if int(c) >= inc.cols {
				inc.Grow(int(c) + 1)
			}
			inc.ones[c]++
		}
		for j, a := range r {
			for _, b := range r[j+1:] {
				delta[pairKey(a, b)]++
			}
		}
	}
	inc.rows += n
	inc.merge(delta)
}

// merge adds delta's counts into the arrays: sort the batch's keys,
// then build the merged arrays front to back, copying the held entries
// between two batch keys as one run. It writes only the fresh arrays,
// never the held ones, which Folded relies on.
func (inc *Incremental) merge(delta map[uint64]int32) {
	add := make([]uint64, 0, len(delta))
	for k := range delta {
		add = append(add, k)
	}
	slices.Sort(add)
	n := len(inc.keys) + len(add)
	keys, hits := make([]uint64, 0, n), make([]int32, 0, n)
	i := 0
	for _, k := range add {
		p, found := slices.BinarySearch(inc.keys[i:], k)
		keys = append(keys, inc.keys[i:i+p]...)
		hits = append(hits, inc.hits[i:i+p]...)
		i += p
		h := delta[k]
		if found {
			h += inc.hits[i]
			i++
		}
		keys, hits = append(keys, k), append(hits, h)
	}
	inc.keys = append(keys, inc.keys[i:]...)
	inc.hits = append(hits, inc.hits[i:]...)
}

// Rows returns the number of transactions folded in so far.
func (inc *Incremental) Rows() int { return inc.rows }

// Cols returns the current column-space width.
func (inc *Incremental) Cols() int { return inc.cols }

// Pairs returns the number of live pair counters.
func (inc *Incremental) Pairs() int { return len(inc.keys) }

// CounterBytes reports the state's size in the paper's counter-array
// model: one counting candidate (id + counter) per co-occurring pair.
func (inc *Incremental) CounterBytes() int { return len(inc.keys) * entryBytes }

// Implications derives every implication rule meeting minconf from the
// counters — no scan, O(pairs) work. Honors Options.MinSupport exactly
// as the scanning pipelines do (columns below the support floor are
// masked out of both rule sides); all other Options fields are scan
// mechanics and do not apply. Rules come back in the canonical
// (From, To) order of rules.SortImplications.
func (inc *Incremental) Implications(minconf Threshold, opts Options) []rules.Implication {
	minconf.check()
	alive := opts.supportMask(inc.ones)
	rk := ranker{inc.ones}
	var out []rules.Implication
	for i, k := range inc.keys {
		a, b, h := matrix.Col(k>>32), matrix.Col(k&0xffffffff), inc.hits[i]
		if !alive.has(int(a)) || !alive.has(int(b)) {
			continue
		}
		lo, hi := a, b
		if !rk.less(lo, hi) {
			lo, hi = hi, lo
		}
		if minconf.Meets(int(h), inc.ones[lo]) {
			out = append(out, rules.Implication{From: lo, To: hi, Hits: int(h), Ones: inc.ones[lo]})
		}
	}
	rules.SortImplications(out)
	return out
}

// Similarities derives every similarity rule meeting minsim from the
// counters; see Implications for the Options contract. Rules come back
// canonicalized (A < B) in rules.SortSimilarities order, which is the
// key order itself, so no sort is needed.
func (inc *Incremental) Similarities(minsim Threshold, opts Options) []rules.Similarity {
	minsim.check()
	alive := opts.supportMask(inc.ones)
	var out []rules.Similarity
	for i, k := range inc.keys {
		a, b, h := matrix.Col(k>>32), matrix.Col(k&0xffffffff), inc.hits[i]
		if !alive.has(int(a)) || !alive.has(int(b)) {
			continue
		}
		if minsim.MeetsSim(int(h), inc.ones[a], inc.ones[b]) {
			out = append(out, rules.Similarity{A: a, B: b, Hits: int(h), OnesA: inc.ones[a], OnesB: inc.ones[b]})
		}
	}
	return out
}

// Snapshot codec: a compact binary form for the cache layer —
//
//	8-byte magic "DMCINC01"
//	uvarint cols | uvarint rows
//	cols × uvarint ones
//	uvarint npairs, then per pair (key-sorted): uvarint key delta,
//	uvarint hits
//	uint32 LE crc32c over everything after the magic
//
// Delta-coding the sorted keys keeps a snapshot near the journal-frame
// sizes the store works with; the trailing CRC rejects torn or
// truncated payloads at decode time instead of resuming from garbage.

var incMagic = []byte("DMCINC01")

// ErrIncSnapshot is wrapped by all snapshot decode failures.
var ErrIncSnapshot = fmt.Errorf("core: bad incremental snapshot")

// EncodeTo writes the state in the snapshot codec with one Write.
func (inc *Incremental) EncodeTo(w io.Writer) error {
	buf := make([]byte, 0, len(incMagic)+3*binary.MaxVarintLen64+2*len(inc.ones)+4*len(inc.keys)+4)
	buf = append(buf, incMagic...)
	buf = binary.AppendUvarint(buf, uint64(inc.cols))
	buf = binary.AppendUvarint(buf, uint64(inc.rows))
	for _, o := range inc.ones {
		buf = binary.AppendUvarint(buf, uint64(o))
	}
	buf = binary.AppendUvarint(buf, uint64(len(inc.keys)))
	prev := uint64(0)
	for i, k := range inc.keys {
		buf = binary.AppendUvarint(buf, k-prev)
		buf = binary.AppendUvarint(buf, uint64(inc.hits[i]))
		prev = k
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(incMagic):], crcTableInc))
	_, err := w.Write(buf)
	return err
}

var crcTableInc = crc32.MakeTable(crc32.Castagnoli)

// DecodeIncremental reads a snapshot written by EncodeTo, verifying
// the magic and the trailing CRC. Snapshots are also files users hand
// to dmcmine -snapshot and dmc.LoadIncrementalState, so a payload that
// checksums but could not have come from EncodeTo — a non-minimal
// varint, keys out of order, a pair outside the column space, a count
// above what its columns allow — is rejected too; an accepted payload
// re-encodes to exactly its input bytes.
func DecodeIncremental(r io.Reader) (*Incremental, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrIncSnapshot}, args...)...)
	}
	if len(data) < len(incMagic)+4 || string(data[:len(incMagic)]) != string(incMagic) {
		return nil, bad("bad magic")
	}
	body := data[len(incMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTableInc) != want {
		return nil, bad("checksum mismatch")
	}
	u := uvarints{buf: body}
	cols64, rows64 := u.next(), u.next()
	if u.err != nil {
		return nil, bad("%v", u.err)
	}
	// Every column and every pair costs at least one and two bytes, so
	// the body length bounds both counts before anything is allocated.
	const maxCols = 1 << 31
	if cols64 > maxCols || cols64 > uint64(len(body)) {
		return nil, bad("column count %d", cols64)
	}
	if rows64 > math.MaxInt {
		return nil, bad("row count %d", rows64)
	}
	inc := NewIncremental(int(cols64))
	inc.rows = int(rows64)
	for c := range inc.ones {
		o := u.next()
		if o > rows64 {
			return nil, bad("column %d: %d ones in %d rows", c, o, rows64)
		}
		inc.ones[c] = int(o)
	}
	npairs := u.next()
	if u.err != nil {
		return nil, bad("%v", u.err)
	}
	if npairs > uint64(len(body)) {
		return nil, bad("pair count %d", npairs)
	}
	inc.keys = make([]uint64, npairs)
	inc.hits = make([]int32, npairs)
	key := uint64(0)
	for i := range inc.keys {
		d, h := u.next(), u.next()
		if u.err != nil {
			return nil, bad("%v", u.err)
		}
		if i > 0 && key+d <= key {
			return nil, bad("pair %d: keys not strictly increasing", i)
		}
		key += d
		lo, hi := key>>32, key&0xffffffff
		if lo >= hi || hi >= cols64 {
			return nil, bad("pair %d: columns (%d,%d) outside %d columns", i, lo, hi, cols64)
		}
		if h == 0 || h > uint64(min(inc.ones[lo], inc.ones[hi])) || h > math.MaxInt32 {
			return nil, bad("pair %d: %d hits for columns with %d and %d ones", i, h, inc.ones[lo], inc.ones[hi])
		}
		inc.keys[i], inc.hits[i] = key, int32(h)
	}
	if u.off != len(body) {
		return nil, bad("%d trailing bytes", len(body)-u.off)
	}
	return inc, nil
}

// uvarints reads successive minimal uvarints from buf; the first
// failure sticks in err and later reads return 0.
type uvarints struct {
	buf []byte
	off int
	err error
}

func (u *uvarints) next() uint64 {
	if u.off < len(u.buf) && u.buf[u.off] < 0x80 && u.err == nil {
		u.off++
		return uint64(u.buf[u.off-1])
	}
	return u.long()
}

// long is next's path for multi-byte varints, the end of the buffer and
// the sticky error.
func (u *uvarints) long() uint64 {
	if u.err != nil {
		return 0
	}
	v, n := binary.Uvarint(u.buf[u.off:])
	switch {
	case n <= 0:
		u.err = fmt.Errorf("truncated or overflowing varint at offset %d", u.off)
		return 0
	case n > 1 && u.buf[u.off+n-1] == 0:
		u.err = fmt.Errorf("non-minimal varint at offset %d", u.off)
		return 0
	}
	u.off += n
	return v
}
