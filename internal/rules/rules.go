// Package rules defines the rule model shared by every mining engine:
// implication rules ci ⇒ cj with their exact confidence, similarity
// rules ci ≃ cj with their exact Jaccard similarity, ordered rule sets,
// and the keyword-expansion browsing of the paper's §6.3 (Fig. 7).
package rules

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dmc/internal/matrix"
)

// Implication is a mined rule From ⇒ To. Hits is |S_From ∩ S_To| and
// Ones is |S_From|, so Confidence is exactly Hits/Ones. Engines only
// report rules in the canonical orientation of §2: ones(From) < ones(To),
// ties broken by From < To.
type Implication struct {
	From, To matrix.Col
	Hits     int
	Ones     int
}

// Confidence returns Hits/Ones.
func (r Implication) Confidence() float64 {
	if r.Ones == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ones)
}

// String renders the rule with raw column ids.
func (r Implication) String() string {
	return fmt.Sprintf("c%d => c%d (%.3f, %d/%d)", r.From, r.To, r.Confidence(), r.Hits, r.Ones)
}

// Label renders the rule with column names from m.
func (r Implication) Label(m *matrix.Matrix) string {
	return fmt.Sprintf("%s -> %s (%.3f)", m.Label(r.From), m.Label(r.To), r.Confidence())
}

// Similarity is a mined rule A ≃ B with A < B (the relation is
// symmetric, so each pair is reported once, ordered by column id).
// Hits is |S_A ∩ S_B|; OnesA and OnesB are the column counts, so the
// similarity is exactly Hits/(OnesA+OnesB−Hits).
type Similarity struct {
	A, B         matrix.Col
	Hits         int
	OnesA, OnesB int
}

// Value returns the Jaccard similarity Hits/(OnesA+OnesB−Hits).
func (s Similarity) Value() float64 {
	u := s.OnesA + s.OnesB - s.Hits
	if u == 0 {
		return 0
	}
	return float64(s.Hits) / float64(u)
}

// String renders the rule with raw column ids.
func (s Similarity) String() string {
	return fmt.Sprintf("c%d ~ c%d (%.3f, %d/%d+%d-%d)", s.A, s.B, s.Value(), s.Hits, s.OnesA, s.OnesB, s.Hits)
}

// Label renders the rule with column names from m.
func (s Similarity) Label(m *matrix.Matrix) string {
	return fmt.Sprintf("%s ~ %s (%.3f)", m.Label(s.A), m.Label(s.B), s.Value())
}

// Canonical returns s with A and B swapped into A < B order.
func (s Similarity) Canonical() Similarity {
	if s.A > s.B {
		s.A, s.B = s.B, s.A
		s.OnesA, s.OnesB = s.OnesB, s.OnesA
	}
	return s
}

// SortImplications orders rules by (From, To); engines emit in
// column-completion order, which depends on the scan order, so tests and
// tools sort before comparing or printing.
func SortImplications(rs []Implication) {
	slices.SortFunc(rs, func(a, b Implication) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
}

// SortSimilarities orders rules by (A, B) after canonicalizing each.
func SortSimilarities(rs []Similarity) {
	for i := range rs {
		rs[i] = rs[i].Canonical()
	}
	slices.SortFunc(rs, func(a, b Similarity) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
}

// DiffImplications reports a human-readable difference between two rule
// sets (after sorting), or "" when identical. Used pervasively by the
// cross-engine equivalence tests.
func DiffImplications(got, want []Implication) string {
	g := append([]Implication(nil), got...)
	w := append([]Implication(nil), want...)
	SortImplications(g)
	SortImplications(w)
	return diff(len(g), len(w),
		func(i int) string { return g[i].String() },
		func(i int) string { return w[i].String() })
}

// DiffSimilarities is DiffImplications for similarity rules.
func DiffSimilarities(got, want []Similarity) string {
	g := append([]Similarity(nil), got...)
	w := append([]Similarity(nil), want...)
	SortSimilarities(g)
	SortSimilarities(w)
	return diff(len(g), len(w),
		func(i int) string { return g[i].String() },
		func(i int) string { return w[i].String() })
}

func diff(ng, nw int, g, w func(int) string) string {
	var b strings.Builder
	i, j := 0, 0
	for i < ng && j < nw {
		gs, ws := g(i), w(j)
		switch {
		case gs == ws:
			i++
			j++
		case gs < ws:
			fmt.Fprintf(&b, "unexpected: %s\n", gs)
			i++
		default:
			fmt.Fprintf(&b, "missing:    %s\n", ws)
			j++
		}
	}
	for ; i < ng; i++ {
		fmt.Fprintf(&b, "unexpected: %s\n", g(i))
	}
	for ; j < nw; j++ {
		fmt.Fprintf(&b, "missing:    %s\n", w(j))
	}
	return b.String()
}
