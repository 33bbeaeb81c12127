package rules

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The rule-file codec was first written with fmt: Fprintf for the
// writers, Sscanf for the readers. Cache entries, job results, fleet
// payloads and dmcmine files written by that code must keep their
// bytes and keep reading back, so the fmt versions stay here as the
// reference.

func fprintfImplications(rs []Implication) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", impMagic, len(rs))
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %d %d %d\n", r.From, r.To, r.Hits, r.Ones)
	}
	return b.String()
}

func fprintfSimilarities(rs []Similarity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", simMagic, len(rs))
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", r.A, r.B, r.Hits, r.OnesA, r.OnesB)
	}
	return b.String()
}

// sscanfImplications is the Sscanf reader, kept to compare what the two
// accept.
func sscanfImplications(r io.Reader) ([]Implication, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing header", ErrRuleFormat)
	}
	header := sc.Text()
	if !strings.HasPrefix(header, impMagic+" ") {
		return nil, fmt.Errorf("%w: bad header %q", ErrRuleFormat, header)
	}
	var n int
	if _, err := fmt.Sscanf(header[len(impMagic):], "%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad rule count in %q", ErrRuleFormat, header)
	}
	out := make([]Implication, 0, capHint(n))
	for sc.Scan() {
		if len(out) == n {
			return nil, fmt.Errorf("%w: more than %d rules", ErrRuleFormat, n)
		}
		var rule Implication
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d %d", &rule.From, &rule.To, &rule.Hits, &rule.Ones); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrRuleFormat, len(out)+2, err)
		}
		if err := checkCounts(rule.Hits, rule.Ones); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrRuleFormat, len(out)+2, err)
		}
		out = append(out, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, fmt.Errorf("%w: truncated: %d of %d rules", ErrRuleFormat, len(out), n)
	}
	return out, nil
}

// TestRuleFileGolden: the strconv writers write the fmt writers' bytes,
// at the extremes of every field too, and read them back.
func TestRuleFileGolden(t *testing.T) {
	imps := []Implication{
		{From: 0, To: 1, Hits: 0, Ones: 1},
		{From: math.MaxUint32, To: 7, Hits: 1 << 31, Ones: 1<<31 + 1},
		{From: 12, To: math.MaxUint32, Hits: math.MaxInt64, Ones: math.MaxInt64},
	}
	sims := []Similarity{
		{A: 3, B: math.MaxUint32, Hits: 5, OnesA: 1<<32 + 5, OnesB: 1 << 40},
		{A: math.MaxUint32, B: 0, Hits: 1 << 31, OnesA: math.MaxInt64, OnesB: 1 << 31},
	}
	const wantImp = "dmcrules imp 1 3\n" +
		"0 1 0 1\n" +
		"4294967295 7 2147483648 2147483649\n" +
		"12 4294967295 9223372036854775807 9223372036854775807\n"
	const wantSim = "dmcrules sim 1 2\n" +
		"3 4294967295 5 4294967301 1099511627776\n" +
		"4294967295 0 2147483648 9223372036854775807 2147483648\n"
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		var gotImp, gotSim bytes.Buffer
		if err := WriteImplications(&gotImp, imps); err != nil {
			t.Fatal(err)
		}
		if err := WriteSimilarities(&gotSim, sims); err != nil {
			t.Fatal(err)
		}
		if want := fprintfImplications(imps); gotImp.String() != want {
			t.Fatalf("implications:\n got %q\nwant %q", gotImp.String(), want)
		}
		if want := fprintfSimilarities(sims); gotSim.String() != want {
			t.Fatalf("similarities:\n got %q\nwant %q", gotSim.String(), want)
		}
		if round == 0 && (gotImp.String() != wantImp || gotSim.String() != wantSim) {
			t.Fatalf("golden text changed:\n%s%s", gotImp.String(), gotSim.String())
		}
		backImp, err := ReadImplications(&gotImp)
		if err != nil || !reflect.DeepEqual(backImp, imps) {
			t.Fatalf("implications read back as %v, %v", backImp, err)
		}
		backSim, err := ReadSimilarities(&gotSim)
		if err != nil || !reflect.DeepEqual(backSim, sims) {
			t.Fatalf("similarities read back as %v, %v", backSim, err)
		}
		// Next round: a random set, long enough to cross the writer's
		// buffer several times.
		imps, sims = make([]Implication, rng.Intn(2000)), make([]Similarity, rng.Intn(2000))
		for i := range imps {
			ones := 1 + rng.Int63n(math.MaxInt64)
			imps[i] = Implication{From: rng.Uint32(), To: rng.Uint32(), Hits: int(rng.Int63n(ones + 1)), Ones: int(ones)}
		}
		for i := range sims {
			hits := rng.Intn(1 << 20)
			sims[i] = Similarity{A: rng.Uint32(), B: rng.Uint32(), Hits: hits, OnesA: hits + rng.Intn(1<<20), OnesB: hits + 1 + rng.Intn(1<<30)}
		}
	}
}

// TestReaderAgainstSscanf pins what the byte-loop reader accepts
// against the Sscanf reader it replaced: the same rules or an error on
// both sides, except in the rows marked stricter, which the Sscanf
// reader took and this one refuses (ReadImplications' doc comment and
// CHANGES.md list them).
func TestReaderAgainstSscanf(t *testing.T) {
	line := func(s string) string { return impMagic + " 1\n" + s + "\n" }
	cases := []struct {
		name     string
		in       string
		stricter bool
	}{
		{"one space", line("0 1 2 3"), false},
		{"runs of spaces", line("0   1  2 3"), false},
		{"tabs", line("0\t1\t\t2 \t3"), false},
		{"leading and trailing blanks", line(" \t0 1 2 3 \t "), false},
		{"vertical tab, form feed, carriage return", line("0\v1\f2\r3"), false},
		{"CRLF", impMagic + " 1\r\n0 1 2 3\r\n", false},
		{"plus signs on counts", line("0 1 +2 +3"), false},
		{"minus zero", line("0 1 -0 3"), false},
		{"negative count", line("0 1 -2 3"), false},
		{"plus sign on a column", line("+0 1 2 3"), false},
		{"minus sign on a column", line("0 -1 2 3"), false},
		{"leading zeros", line("00 01 002 0003"), false},
		{"column MaxUint32", line("4294967295 0 1 1"), false},
		{"column above MaxUint32", line("4294967296 0 1 1"), false},
		{"count MaxInt64", line("0 1 9223372036854775807 9223372036854775807"), false},
		{"count above MaxInt64", line("0 1 1 9223372036854775808"), false},
		{"empty line", line(""), false},
		{"blank line", line(" \t"), false},
		{"three fields", line("0 1 2"), false},
		{"commas", line("0,1,2,3"), false},
		{"hex", line("0x1 1 1 1"), false},
		{"digit separator", line("1_0 1 1 1"), false},
		{"fullwidth digit", line("0 1 2 \uff13"), false},
		{"sign alone", line("0 1 + 3"), false},
		{"header count with a plus sign", impMagic + " +1\n0 1 2 3\n", false},
		{"header count after two spaces", impMagic + "  1\n0 1 2 3\n", false},
		{"header count after a tab", impMagic + "\t1\n0 1 2 3\n", false},
		{"header count missing", impMagic + " \n", false},
		{"bytes after the last field", line("0 1 2 3 x"), true},
		{"fifth field", line("0 1 2 3 4"), true},
		{"letter on the last field", line("0 1 2 3x"), true},
		{"NUL after the last field", line("0 1 2 3\x00"), true},
		{"no-break space between fields", line("0\u00a01 2 3"), true},
		{"line separator after the last field", line("0 1 2 3\u2028"), true},
		{"bytes after the header count", impMagic + " 1 x\n0 1 2 3\n", true},
	}
	for _, c := range cases {
		old, oldErr := sscanfImplications(strings.NewReader(c.in))
		got, err := ReadImplications(strings.NewReader(c.in))
		switch {
		case c.stricter:
			if oldErr != nil {
				t.Errorf("%s: the Sscanf reader refused %q (%v); the row is not stricter", c.name, c.in, oldErr)
			}
			if err == nil {
				t.Errorf("%s: accepted %q as %v", c.name, c.in, got)
			}
		case (oldErr == nil) != (err == nil):
			t.Errorf("%s: %q: Sscanf reader err %v, byte reader err %v", c.name, c.in, oldErr, err)
		case err == nil && !reflect.DeepEqual(got, old):
			t.Errorf("%s: %q read as %v, Sscanf reader %v", c.name, c.in, got, old)
		}
		if err != nil && !errors.Is(err, ErrRuleFormat) {
			t.Errorf("%s: error %v does not wrap ErrRuleFormat", c.name, err)
		}
	}
}

// TestReaderLineNumbers: a malformed line is reported by its number.
func TestReaderLineNumbers(t *testing.T) {
	in := impMagic + " 3\n0 1 1 1\n0 2 1 1\n0 3 one 1\n"
	if _, err := ReadImplications(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 4:") {
		t.Fatalf("err = %v, want line 4", err)
	}
	in = simMagic + " 2\n0 1 1 1 1\n0 2 1 1 1 1\n"
	if _, err := ReadSimilarities(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("err = %v, want line 3", err)
	}
}
