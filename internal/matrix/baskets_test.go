package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadBaskets(t *testing.T) {
	in := `# a comment
bread butter jam
butter bread
# another comment
tea

bread`
	m, err := ReadBaskets(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Five transactions: the blank line is an empty one.
	if m.NumRows() != 5 || m.NumCols() != 4 {
		t.Fatalf("dims %dx%d, want 5x4", m.NumRows(), m.NumCols())
	}
	if !reflect.DeepEqual(m.Labels(), []string{"bread", "butter", "jam", "tea"}) {
		t.Fatalf("labels = %v", m.Labels())
	}
	if !reflect.DeepEqual(m.Row(0), []Col{0, 1, 2}) {
		t.Fatalf("row 0 = %v", m.Row(0))
	}
	if !reflect.DeepEqual(m.Row(1), []Col{0, 1}) { // normalized order
		t.Fatalf("row 1 = %v", m.Row(1))
	}
	if m.RowWeight(2) != 1 || m.RowWeight(3) != 0 || !reflect.DeepEqual(m.Row(4), []Col{0}) {
		t.Fatal("tea / empty / trailing rows wrong")
	}
}

func TestBasketsRoundTrip(t *testing.T) {
	in := "a b c\nb c\na\n"
	m, err := ReadBaskets(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBaskets(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaskets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, back) || !reflect.DeepEqual(m.Labels(), back.Labels()) {
		t.Fatal("basket round trip changed the matrix")
	}
}

func TestWriteBasketsErrors(t *testing.T) {
	var buf bytes.Buffer
	m := FromRows(1, [][]Col{{0}})
	if err := WriteBaskets(&buf, m); err == nil {
		t.Error("unlabeled matrix accepted")
	}
	for _, bad := range []string{"", "two words", "#hash"} {
		m := FromRows(1, [][]Col{{0}})
		m.SetLabels([]string{bad})
		if err := WriteBaskets(&buf, m); err == nil {
			t.Errorf("label %q accepted", bad)
		}
	}
}

func TestBasketSaveLoad(t *testing.T) {
	m, err := ReadBaskets(strings.NewReader("x y\ny z\n"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.basket")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, back) || !reflect.DeepEqual(back.Labels(), m.Labels()) {
		t.Fatal("basket Save/Load round trip failed")
	}
	// No companion .labels file for baskets.
	if _, err := Load(path + ".labels"); err == nil {
		t.Error("unexpected .labels companion")
	}
}

func TestReadBasketsEmpty(t *testing.T) {
	m, err := ReadBaskets(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 0 || m.NumCols() != 0 || m.Labels() != nil {
		t.Fatalf("empty input: %dx%d labels=%v", m.NumRows(), m.NumCols(), m.Labels())
	}
}

// randomBaskets draws n basket lines over a vocabulary of k tokens,
// with comment and empty lines mixed in.
func randomBaskets(rng *rand.Rand, n, k int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			b.WriteString("# a comment\n")
		case 1:
			b.WriteString("\n")
		}
		for j, w := 0, rng.Intn(6); j < w; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "t%d", rng.Intn(k))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshotRows copies m's rows, so a test can tell whether m changed.
func snapshotRows(m *Matrix) [][]Col {
	rows := make([][]Col, m.NumRows())
	for i := range rows {
		rows[i] = append([]Col{}, m.Row(i)...)
	}
	return rows
}

// TestExtendBasketsMatchesReadBaskets: appending basket body b to the
// matrix of body a gives the matrix of a+b — rows, width and labels —
// and leaves a's matrix unchanged.
func TestExtendBasketsMatchesReadBaskets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		// A body without tokens reads as an unlabeled matrix, which
		// takes column ids, not tokens; a starts with one token.
		a := "t0\n" + randomBaskets(rng, rng.Intn(30), 1+rng.Intn(40))
		b := randomBaskets(rng, rng.Intn(30), 1+rng.Intn(60))
		base, err := ReadBaskets(strings.NewReader(a))
		if err != nil {
			t.Fatal(err)
		}
		rows, labels := snapshotRows(base), append([]string(nil), base.Labels()...)
		got, err := ExtendBaskets(base, strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReadBaskets(strings.NewReader(a + b))
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("case %d: extended matrix invalid: %v", i, err)
		}
		if !matricesEqual(got, want) || !reflect.DeepEqual(got.Labels(), want.Labels()) {
			t.Fatalf("case %d: ExtendBaskets(ReadBaskets(a), b) != ReadBaskets(a+b)\na=%q\nb=%q", i, a, b)
		}
		if !matricesEqual(base, FromRows(base.NumCols(), rows)) || !reflect.DeepEqual(base.Labels(), labels) {
			t.Fatalf("case %d: ExtendBaskets modified its base matrix", i)
		}
	}
}

// TestExtendBasketsUnlabeled: tokens of an unlabeled append are column
// ids, and the result equals FromRows of the concatenated rows, widened
// to the largest id — or, past the width limit, is an ErrFormat.
func TestExtendBasketsUnlabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		base := randomMatrix(rng, rng.Intn(30), 1+rng.Intn(20), 0.3)
		add := randomMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(30), rng.Float64()*0.4)
		width := base.NumCols()
		var body strings.Builder
		for r := 0; r < add.NumRows(); r++ {
			for j, c := range add.Row(r) {
				if j > 0 {
					body.WriteByte(' ')
				}
				fmt.Fprint(&body, c)
				width = max(width, int(c)+1)
			}
			body.WriteByte('\n')
		}
		rows := snapshotRows(base)
		got, err := ExtendBaskets(base, strings.NewReader(body.String()))
		if width > base.NumCols()+add.NumOnes() {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("case %d: widening %d columns to %d with %d ones: err = %v, want ErrFormat", i, base.NumCols(), width, add.NumOnes(), err)
			}
		} else {
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			want := FromRows(width, append(snapshotRows(base), snapshotRows(add)...))
			if !matricesEqual(got, want) || got.Labels() != nil {
				t.Fatalf("case %d: ExtendBaskets differs from FromRows of the concatenated rows", i)
			}
		}
		if !matricesEqual(base, FromRows(base.NumCols(), rows)) {
			t.Fatalf("case %d: ExtendBaskets modified its base matrix", i)
		}
	}
	if _, err := ExtendBaskets(fig1(), strings.NewReader("0 bread\n")); err == nil {
		t.Fatal("a non-numeric token was accepted on an unlabeled matrix")
	}
}

// TestExtendBasketsWidthLimit: an unlabeled append may widen the matrix
// by at most its count of ones, so an 11-byte body cannot size every
// per-column array of the dataset.
func TestExtendBasketsWidthLimit(t *testing.T) {
	m := fig1() // 3 columns
	for _, body := range []string{"0 50000000\n", "5\n", "2 0 6\n"} {
		if _, err := ExtendBaskets(m, strings.NewReader(body)); !errors.Is(err, ErrFormat) {
			t.Errorf("append %q: err = %v, want ErrFormat", body, err)
		}
	}
	// Widening by up to the count of ones is allowed: 3 ones may reach
	// column 5, so a width of 6.
	got, err := ExtendBaskets(m, strings.NewReader("4\n3 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCols() != 6 || got.NumRows() != 6 {
		t.Fatalf("dims %dx%d, want 6x6", got.NumRows(), got.NumCols())
	}
	if m.NumCols() != 3 || m.NumRows() != 4 {
		t.Fatal("the base matrix changed")
	}
}
