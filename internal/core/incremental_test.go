package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// impText renders implications in the canonical wire format so parity
// checks compare the exact bytes a cache or client would see.
func impText(t *testing.T, imps []rules.Implication) string {
	t.Helper()
	var b bytes.Buffer
	if err := rules.WriteImplications(&b, imps); err != nil {
		t.Fatalf("WriteImplications: %v", err)
	}
	return b.String()
}

func simText(t *testing.T, sims []rules.Similarity) string {
	t.Helper()
	var b bytes.Buffer
	if err := rules.WriteSimilarities(&b, sims); err != nil {
		t.Fatalf("WriteSimilarities: %v", err)
	}
	return b.String()
}

// canonicalImps runs a full mine and returns the canonical text. The
// scan engines already emit in SortImplications order.
func canonicalImps(t *testing.T, m *matrix.Matrix, th Threshold, opts Options, workers int) string {
	t.Helper()
	var imps []rules.Implication
	if workers <= 1 {
		imps, _ = DMCImp(m, th, opts)
	} else {
		imps, _ = DMCImpParallel(m, th, opts, workers)
	}
	out := append([]rules.Implication(nil), imps...)
	rules.SortImplications(out)
	return impText(t, out)
}

// canonicalSims canonicalizes pair orientation too: the scan engines
// emit A = rank-lower column, while the snapshot derivation emits
// A < B by id. SortSimilarities normalizes both.
func canonicalSims(t *testing.T, m *matrix.Matrix, th Threshold, opts Options, workers int) string {
	t.Helper()
	var sims []rules.Similarity
	if workers <= 1 {
		sims, _ = DMCSim(m, th, opts)
	} else {
		sims, _ = DMCSimParallel(m, th, opts, workers)
	}
	out := append([]rules.Similarity(nil), sims...)
	rules.SortSimilarities(out)
	return simText(t, out)
}

// prefixMatrix returns the first n rows of m as an independent matrix
// over the same column space.
func prefixMatrix(m *matrix.Matrix, n int) *matrix.Matrix {
	rows := make([][]matrix.Col, n)
	for i := 0; i < n; i++ {
		rows[i] = m.Row(i)
	}
	return matrix.FromRows(m.NumCols(), rows)
}

func TestIncrementalEmpty(t *testing.T) {
	inc := NewIncremental(0)
	if got := inc.Implications(FromPercent(50), Options{}); len(got) != 0 {
		t.Fatalf("empty state yielded %d implications", len(got))
	}
	if got := inc.Similarities(FromPercent(50), Options{}); len(got) != 0 {
		t.Fatalf("empty state yielded %d similarities", len(got))
	}
	if inc.Rows() != 0 || inc.Cols() != 0 || inc.Pairs() != 0 {
		t.Fatalf("empty state not empty: rows=%d cols=%d pairs=%d", inc.Rows(), inc.Cols(), inc.Pairs())
	}
}

func TestIncrementalRejectsUnsortedRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow accepted a non-increasing row")
		}
	}()
	NewIncremental(4).AddRow([]matrix.Col{2, 1})
}

// TestIncrementalParityFull builds the state from whole random
// matrices and checks rule-for-rule, byte-for-byte agreement with the
// scanning engines and the naive reference across thresholds (including
// 100%), minsupport settings, and worker counts {1, 2, 8}.
func TestIncrementalParityFull(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mx := randomMatrix(rng, 15+rng.Intn(60), 6+rng.Intn(16))
		th := FromPercent(1 + rng.Intn(100))
		opts := Options{MinSupport: rng.Intn(4)}
		inc := BuildIncremental(mx)

		gotImp := impText(t, inc.Implications(th, opts))
		gotSim := simText(t, inc.Similarities(th, opts))
		for _, workers := range []int{1, 2, 8} {
			if want := canonicalImps(t, mx, th, opts, workers); gotImp != want {
				t.Fatalf("seed %d workers %d: implication mismatch\nincremental:\n%s\nfull:\n%s",
					seed, workers, gotImp, want)
			}
			if want := canonicalSims(t, mx, th, opts, workers); gotSim != want {
				t.Fatalf("seed %d workers %d: similarity mismatch\nincremental:\n%s\nfull:\n%s",
					seed, workers, gotSim, want)
			}
		}
		if opts.MinSupport <= 1 {
			naiveImp := append([]rules.Implication(nil), NaiveImplications(mx, th)...)
			rules.SortImplications(naiveImp)
			if want := impText(t, naiveImp); gotImp != want {
				t.Fatalf("seed %d: implication mismatch vs naive\nincremental:\n%s\nnaive:\n%s",
					seed, gotImp, want)
			}
			naiveSim := append([]rules.Similarity(nil), NaiveSimilarities(mx, th)...)
			rules.SortSimilarities(naiveSim)
			if want := simText(t, naiveSim); gotSim != want {
				t.Fatalf("seed %d: similarity mismatch vs naive\nincremental:\n%s\nnaive:\n%s",
					seed, gotSim, want)
			}
		}
	}
}

// TestIncrementalParityAppend is the core append guarantee: building
// from a prefix and folding in the remaining rows chunk by chunk (and
// round-tripping the snapshot codec between chunks, as the cache layer
// does) yields results byte-identical to a full re-mine of the grown
// matrix at every step.
func TestIncrementalParityAppend(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		mx := randomMatrix(rng, 30+rng.Intn(60), 6+rng.Intn(16))
		th := FromPercent(1 + rng.Intn(100))
		opts := Options{MinSupport: rng.Intn(3)}

		base := 1 + rng.Intn(mx.NumRows()-2)
		inc := BuildIncremental(prefixMatrix(mx, base))
		for n := base; n < mx.NumRows(); {
			next := n + 1 + rng.Intn(10)
			if next > mx.NumRows() {
				next = mx.NumRows()
			}
			for i := n; i < next; i++ {
				inc.AddRow(mx.Row(i))
			}
			n = next

			// Snapshot round-trip between chunks, like the cache does.
			var buf bytes.Buffer
			if err := inc.EncodeTo(&buf); err != nil {
				t.Fatalf("seed %d: EncodeTo: %v", seed, err)
			}
			var err error
			if inc, err = DecodeIncremental(&buf); err != nil {
				t.Fatalf("seed %d: DecodeIncremental: %v", seed, err)
			}

			grown := prefixMatrix(mx, n)
			if inc.Rows() != n {
				t.Fatalf("seed %d: rows = %d, want %d", seed, inc.Rows(), n)
			}
			gotImp := impText(t, inc.Implications(th, opts))
			gotSim := simText(t, inc.Similarities(th, opts))
			for _, workers := range []int{1, 2, 8} {
				if want := canonicalImps(t, grown, th, opts, workers); gotImp != want {
					t.Fatalf("seed %d rows %d workers %d: implication mismatch\nincremental:\n%s\nfull:\n%s",
						seed, n, workers, gotImp, want)
				}
				if want := canonicalSims(t, grown, th, opts, workers); gotSim != want {
					t.Fatalf("seed %d rows %d workers %d: similarity mismatch\nincremental:\n%s\nfull:\n%s",
						seed, n, workers, gotSim, want)
				}
			}
		}
	}
}

// TestIncrementalColumnGrowth appends rows introducing columns the base
// matrix never saw — the labeled-dataset append case where new tokens
// mint new ids.
func TestIncrementalColumnGrowth(t *testing.T) {
	base := matrix.FromRows(3, [][]matrix.Col{{0, 1}, {0, 1, 2}, {1, 2}})
	inc := BuildIncremental(base)
	inc.AddRow([]matrix.Col{0, 3, 5})
	inc.AddRow([]matrix.Col{3, 5})
	if inc.Cols() != 6 {
		t.Fatalf("cols = %d, want 6", inc.Cols())
	}
	grown := matrix.FromRows(6, [][]matrix.Col{
		{0, 1}, {0, 1, 2}, {1, 2}, {0, 3, 5}, {3, 5},
	})
	for _, pct := range []int{40, 75, 100} {
		th := FromPercent(pct)
		if got, want := impText(t, inc.Implications(th, Options{})), canonicalImps(t, grown, th, Options{}, 1); got != want {
			t.Fatalf("pct %d: implication mismatch\nincremental:\n%s\nfull:\n%s", pct, got, want)
		}
		if got, want := simText(t, inc.Similarities(th, Options{})), canonicalSims(t, grown, th, Options{}, 1); got != want {
			t.Fatalf("pct %d: similarity mismatch\nincremental:\n%s\nfull:\n%s", pct, got, want)
		}
	}
}

func TestIncrementalCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mx := randomMatrix(rng, 80, 20)
	inc := BuildIncremental(mx)
	var buf bytes.Buffer
	if err := inc.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	dec, err := DecodeIncremental(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeIncremental: %v", err)
	}
	if dec.Rows() != inc.Rows() || dec.Cols() != inc.Cols() || dec.Pairs() != inc.Pairs() {
		t.Fatalf("round trip changed shape: got (%d,%d,%d) want (%d,%d,%d)",
			dec.Rows(), dec.Cols(), dec.Pairs(), inc.Rows(), inc.Cols(), inc.Pairs())
	}
	th := FromPercent(60)
	if got, want := impText(t, dec.Implications(th, Options{})), impText(t, inc.Implications(th, Options{})); got != want {
		t.Fatalf("round trip changed implications:\n%s\nvs\n%s", got, want)
	}
	// Empty state round-trips too.
	buf.Reset()
	if err := NewIncremental(0).EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo(empty): %v", err)
	}
	if dec, err = DecodeIncremental(&buf); err != nil {
		t.Fatalf("DecodeIncremental(empty): %v", err)
	}
	if dec.Rows() != 0 || dec.Cols() != 0 || dec.Pairs() != 0 {
		t.Fatalf("empty round trip not empty: (%d,%d,%d)", dec.Rows(), dec.Cols(), dec.Pairs())
	}
}

// TestIncrementalDecodeRejectsDamage flips/truncates bytes and checks
// the codec refuses to resume from a damaged snapshot.
func TestIncrementalDecodeRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inc := BuildIncremental(randomMatrix(rng, 40, 12))
	var buf bytes.Buffer
	if err := inc.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("DMCINC99"), good[8:]...),
		"truncated":  good[:len(good)-5],
		"short":      good[:6],
		"extra byte": append(append([]byte(nil), good...), 0x00),
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped

	// Checksummed foreign payloads: the CRC holds, but no EncodeTo could
	// have written them. Each body is cols, rows, ones..., npairs, then
	// (key delta, hits) per pair.
	foreign := map[string][]uint64{
		"hi beyond cols":   {2, 1, 1, 1, 1, 7, 1},
		"lo equals hi":     {2, 1, 1, 1, 1, 1<<32 | 1, 1},
		"lo above hi":      {2, 1, 1, 1, 1, 1 << 32, 1},
		"key repeated":     {3, 2, 2, 2, 2, 2, 1, 1, 0, 1},
		"key wraps around": {3, 2, 2, 2, 2, 2, 1, 1, 1<<64 - 1, 1},
		"zero hits":        {2, 1, 1, 1, 1, 1, 0},
		"hits above ones":  {2, 3, 3, 1, 1, 1, 2},
		"ones above rows":  {2, 1, 2, 1, 0},
		"pairs overflow":   {2, 1, 1, 1, 1 << 40},
	}
	for name, vals := range foreign {
		cases[name] = sealIncBody(uvarintBody(vals...))
	}
	// 0x80 0x00 is a two-byte zero: it decodes, but re-encodes as 0x00.
	cases["non-minimal varint"] = sealIncBody(append([]byte{0x80, 0x00}, uvarintBody(0, 0)...))

	for name, data := range cases {
		_, err := DecodeIncremental(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decode succeeded on damaged snapshot", name)
		} else if name != "empty" && !errors.Is(err, ErrIncSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrIncSnapshot", name, err)
		}
	}

	// The sealing helper itself round-trips a real snapshot, so the
	// foreign cases above fail on their content, not on the framing.
	if got := sealIncBody(good[len(incMagic) : len(good)-4]); !bytes.Equal(got, good) {
		t.Fatal("sealIncBody does not reproduce an encoded snapshot")
	}
}

// uvarintBody encodes vals as consecutive uvarints.
func uvarintBody(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// sealIncBody frames body as a snapshot: magic, body, CRC.
func sealIncBody(body []byte) []byte {
	out := append(append([]byte(nil), incMagic...), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTableInc))
}

// goldenIncHex is the DMCINC01 encoding of goldenIncState, as written
// when the state was a hash map sorted at encode time. Cached snapshots
// and dmcmine -snapshot files in the wild hold these bytes, so the
// encoding must never drift.
const goldenIncHex = "444d43494e433031088801850186010402000200010a01850101020301fdffffff0f0201010202feffffff0f0102010201feffffff0f01d7fd1757"

// goldenIncState covers multi-byte ones, hits and key deltas and a
// column-space growth.
func goldenIncState() *Incremental {
	inc := BuildIncremental(matrix.FromRows(6, [][]matrix.Col{{0, 1, 2}, {0, 1}, {1, 3, 5}, {2, 3}, {0, 1, 2, 5}}))
	for i := 0; i < 130; i++ {
		inc.AddRow([]matrix.Col{0, 1})
	}
	inc.AddRow([]matrix.Col{2, 7})
	return inc
}

func TestIncrementalGoldenEncoding(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenIncState().EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenIncHex {
		t.Fatalf("encoding drifted:\ngot  %s\nwant %s", got, goldenIncHex)
	}
}

// TestIncrementalChunkedFoldMatchesBuild folds random matrices in random
// chunks through AddMatrixRows — including chunks that widen the column
// space — and requires the encoding to equal BuildIncremental's of the
// whole matrix byte for byte.
func TestIncrementalChunkedFoldMatchesBuild(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		mx := randomMatrix(rng, 20+rng.Intn(200), 4+rng.Intn(40))
		var want bytes.Buffer
		if err := BuildIncremental(mx).EncodeTo(&want); err != nil {
			t.Fatalf("seed %d: EncodeTo: %v", seed, err)
		}

		inc := NewIncremental(0)
		for n := 0; n < mx.NumRows(); {
			next := min(mx.NumRows(), n+1+rng.Intn(40))
			width := 0
			rows := make([][]matrix.Col, next)
			for i := range rows {
				rows[i] = mx.Row(i)
				if r := rows[i]; len(r) > 0 {
					width = max(width, int(r[len(r)-1])+1)
				}
			}
			inc.AddMatrixRows(matrix.FromRows(width, rows), n)
			n = next
		}
		inc.Grow(mx.NumCols())
		var got bytes.Buffer
		if err := inc.EncodeTo(&got); err != nil {
			t.Fatalf("seed %d: EncodeTo: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: chunked fold encodes differently from a whole build", seed)
		}
	}
}

// FuzzDecodeIncremental: a decode either fails or re-encodes to its
// input bytes. Each input is tried as-is and sealed as a snapshot body
// with a valid CRC, so the fuzzer reaches the checks past the checksum.
func FuzzDecodeIncremental(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, inc := range []*Incremental{NewIncremental(0), goldenIncState(), BuildIncremental(randomMatrix(rng, 30, 10))} {
		var buf bytes.Buffer
		if err := inc.EncodeTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[len(incMagic) : buf.Len()-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealIncBody(data)} {
			inc, err := DecodeIncremental(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := inc.EncodeTo(&out); err != nil {
				t.Fatalf("EncodeTo: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("decoded snapshot re-encodes differently:\nin  %x\nout %x", in, out.Bytes())
			}
			// An accepted state is safe to derive from.
			inc.Implications(FromPercent(50), Options{})
			inc.Similarities(FromPercent(50), Options{})
		}
	})
}

func TestIncrementalCounterBytes(t *testing.T) {
	inc := NewIncremental(4)
	inc.AddRow([]matrix.Col{0, 1, 2})
	if got, want := inc.CounterBytes(), 3*entryBytes; got != want {
		t.Fatalf("CounterBytes = %d, want %d", got, want)
	}
}

// TestIncrementalFoldedConcurrent: Folded returns what a fresh build of
// the grown matrix holds, byte for byte, including a fold that widens
// the column space, and leaves its receiver's encoding and derivations
// as they were while other goroutines read the receiver.
func TestIncrementalFoldedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full := randomMatrix(rng, 240, 24)
	rows := make([][]matrix.Col, full.NumRows(), full.NumRows()+1)
	for i := range rows {
		rows[i] = full.Row(i)
	}
	const base = 100
	inc := BuildIncremental(prefixMatrix(full, base))
	var snap bytes.Buffer
	if err := inc.EncodeTo(&snap); err != nil {
		t.Fatal(err)
	}
	wantImp := impText(t, inc.Implications(FromPercent(60), Options{}))
	wantSim := simText(t, inc.Similarities(FromPercent(40), Options{}))
	// The grown matrices: every longer prefix, and the whole matrix plus
	// one row over four new columns.
	var grown []*matrix.Matrix
	for n := base + 20; n <= full.NumRows(); n += 35 {
		grown = append(grown, prefixMatrix(full, n))
	}
	grown = append(grown, matrix.FromRows(full.NumCols()+4, append(rows, []matrix.Col{3, 24, 25, 27})))

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b bytes.Buffer
				if err := inc.EncodeTo(&b); err != nil || !bytes.Equal(b.Bytes(), snap.Bytes()) {
					t.Errorf("receiver's encoding changed while folding (err %v)", err)
					return
				}
				var ib, sb bytes.Buffer
				rules.WriteImplications(&ib, inc.Implications(FromPercent(60), Options{}))
				rules.WriteSimilarities(&sb, inc.Similarities(FromPercent(40), Options{}))
				if ib.String() != wantImp || sb.String() != wantSim {
					t.Error("receiver's derivations changed while folding")
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range grown {
				var got, want bytes.Buffer
				if err := inc.Folded(m, base).EncodeTo(&got); err != nil {
					t.Error(err)
					return
				}
				if err := BuildIncremental(m).EncodeTo(&want); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("Folded to %d rows x %d cols encodes differently from a build", m.NumRows(), m.NumCols())
					return
				}
			}
		}()
	}
	wg.Wait()
	var after bytes.Buffer
	if err := inc.EncodeTo(&after); err != nil || !bytes.Equal(after.Bytes(), snap.Bytes()) {
		t.Fatalf("receiver changed by Folded (err %v)", err)
	}
	if inc.Rows() != base || inc.Cols() != full.NumCols() {
		t.Fatalf("receiver is %d rows x %d cols, want %d x %d", inc.Rows(), inc.Cols(), base, full.NumCols())
	}
}

// TestPairBound: the bound is min(Σ w(w−1)/2, cols(cols−1)/2) over the
// rows folded, plus the pairs already held, and no build or fold holds
// more pairs than it says.
func TestPairBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.Matrix
		want int64
	}{
		{"empty", matrix.FromRows(0, nil), 0},
		{"empty rows", matrix.FromRows(5, [][]matrix.Col{{}, {2}, {}}), 0},
		{"row sum", matrix.FromRows(10, [][]matrix.Col{{0, 1, 2}, {3, 4}, {0, 1, 2}}), 3 + 1 + 3},
		{"column cap", matrix.FromRows(4, [][]matrix.Col{{0, 1, 2, 3}, {0, 1, 2, 3}}), 6},
	} {
		if got := PairBound(tc.m, 0, 0); got != tc.want {
			t.Errorf("%s: PairBound = %d, want %d", tc.name, got, tc.want)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		m := randomMatrix(rng, 10+rng.Intn(150), 2+rng.Intn(30))
		cols := int64(m.NumCols())
		var sum int64
		for i := 0; i < m.NumRows(); i++ {
			w := int64(m.RowWeight(i))
			sum += w * (w - 1) / 2
		}
		if got, want := PairBound(m, 0, 0), min(sum, cols*(cols-1)/2); got != want {
			t.Fatalf("seed %d: PairBound = %d, want %d", seed, got, want)
		}
		if inc := BuildIncremental(m); int64(inc.Pairs()) > PairBound(m, 0, 0) {
			t.Fatalf("seed %d: a build holds %d pairs, bound %d", seed, inc.Pairs(), PairBound(m, 0, 0))
		}
		from := rng.Intn(m.NumRows())
		base := BuildIncremental(prefixMatrix(m, from))
		if got, bound := base.Folded(m, from).Pairs(), PairBound(m, from, base.Pairs()); int64(got) > bound {
			t.Fatalf("seed %d: a fold from row %d holds %d pairs, bound %d", seed, from, got, bound)
		}
	}
}
