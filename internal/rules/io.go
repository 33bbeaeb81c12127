package rules

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"dmc/internal/matrix"
)

// Rule files let a mining run be separated from rule browsing: dmcmine
// writes them, dmcrules reads them back. The format is line-oriented
// text — a header, then one rule per line with its exact counts (so
// confidences/similarities reload losslessly). The same text is the
// payload of cache entries, job results and fleet shard replies.

// ErrRuleFormat is wrapped by all rule-file parse errors.
var ErrRuleFormat = errors.New("rules: malformed rule file")

const (
	impMagic = "dmcrules imp 1"
	simMagic = "dmcrules sim 1"
)

// WriteImplications writes rules in the implication rule-file format:
// the header "dmcrules imp 1 <n>", then "From To Hits Ones" per rule,
// each field in decimal and separated by one space.
func WriteImplications(w io.Writer, rs []Implication) error {
	bw := bufio.NewWriter(w)
	line := appendHeader(make([]byte, 0, 128), impMagic, len(rs))
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, r := range rs {
		line = strconv.AppendUint(line[:0], uint64(r.From), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(r.To), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Hits), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Ones), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadImplications reads a file written by WriteImplications. It
// streams: one line is held at a time, and a header's rule count is
// trusted for allocation only up to a bound.
//
// The fields of a line (and the header's count) are decimal digits
// separated by runs of ASCII blanks (space, \t, \v, \f, \r), which may
// also lead and trail the line; the counts may carry a sign, the
// column ids may not; a column id above MaxUint32 or a count outside
// int is an error, as is an empty line. That is what the fmt.Sscanf
// reader this one replaced accepted, except that
//
//   - bytes other than blanks after a line's last field, or after the
//     header's count, are an error (Sscanf ignored them, so "0 1 1 1 x"
//     and a five-field implication line used to read as their first
//     four fields);
//   - blanks are ASCII only (Sscanf also took Unicode spaces such as
//     U+00A0 and U+2028 between fields).
func ReadImplications(r io.Reader) ([]Implication, error) {
	sc, n, err := ruleHeader(r, impMagic)
	if err != nil {
		return nil, err
	}
	out := make([]Implication, 0, capHint(n))
	for sc.Scan() {
		if len(out) == n {
			return nil, fmt.Errorf("%w: more than %d rules", ErrRuleFormat, n)
		}
		var f [4]int64
		if err := parseLine(sc.Bytes(), f[:], 2); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrRuleFormat, len(out)+2, err)
		}
		rule := Implication{From: matrix.Col(f[0]), To: matrix.Col(f[1]), Hits: int(f[2]), Ones: int(f[3])}
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

// WriteSimilarities writes rules in the similarity rule-file format:
// the header "dmcrules sim 1 <n>", then "A B Hits OnesA OnesB" per
// rule, as WriteImplications writes its fields.
func WriteSimilarities(w io.Writer, rs []Similarity) error {
	bw := bufio.NewWriter(w)
	line := appendHeader(make([]byte, 0, 128), simMagic, len(rs))
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, r := range rs {
		line = strconv.AppendUint(line[:0], uint64(r.A), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(r.B), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Hits), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.OnesA), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.OnesB), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSimilarities reads a file written by WriteSimilarities, with the
// line syntax of ReadImplications.
func ReadSimilarities(r io.Reader) ([]Similarity, error) {
	sc, n, err := ruleHeader(r, simMagic)
	if err != nil {
		return nil, err
	}
	out := make([]Similarity, 0, capHint(n))
	for sc.Scan() {
		if len(out) == n {
			return nil, fmt.Errorf("%w: more than %d rules", ErrRuleFormat, n)
		}
		var f [5]int64
		if err := parseLine(sc.Bytes(), f[:], 2); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrRuleFormat, len(out)+2, err)
		}
		rule := Similarity{A: matrix.Col(f[0]), B: matrix.Col(f[1]), Hits: int(f[2]), OnesA: int(f[3]), OnesB: int(f[4])}
		if checkCounts(rule.Hits, rule.OnesA) != nil || checkCounts(rule.Hits, rule.OnesB) != nil {
			return nil, fmt.Errorf("%w: line %d: impossible counts", ErrRuleFormat, len(out)+2)
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

func appendHeader(b []byte, magic string, n int) []byte {
	b = append(b, magic...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\n')
}

func ruleHeader(r io.Reader, magic string) (*bufio.Scanner, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		return nil, 0, fmt.Errorf("%w: missing header", ErrRuleFormat)
	}
	header := sc.Bytes()
	if len(header) <= len(magic) || string(header[:len(magic)]) != magic || header[len(magic)] != ' ' {
		return nil, 0, fmt.Errorf("%w: bad header %q", ErrRuleFormat, header)
	}
	var f [1]int64
	if err := parseLine(header[len(magic):], f[:], 0); err != nil || f[0] < 0 {
		return nil, 0, fmt.Errorf("%w: bad rule count in %q", ErrRuleFormat, header)
	}
	return sc, int(f[0]), nil
}

// parseLine parses the len(f) fields of one rule-file line into f, in
// the syntax of ReadImplications: the first cols are column ids, the
// rest counts.
func parseLine(line []byte, f []int64, cols int) error {
	i := 0
	for k := range f {
		j := i
		for i < len(line) && isBlank(line[i]) {
			i++
		}
		if i == j && k > 0 && i < len(line) {
			return fmt.Errorf("unexpected %q after field %d", line[i:], k)
		}
		neg := false
		if k >= cols && i < len(line) && (line[i] == '+' || line[i] == '-') {
			neg = line[i] == '-'
			i++
		}
		start := i
		var v uint64
		for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
			if v > (math.MaxUint64-9)/10 {
				v = math.MaxUint64 // past any limit; keep reading the digits
				continue
			}
			v = v*10 + uint64(line[i]-'0')
		}
		if i == start {
			if i == len(line) {
				return fmt.Errorf("field %d missing", k+1)
			}
			return fmt.Errorf("field %d: expected a number at %q", k+1, line[i:])
		}
		limit := uint64(math.MaxInt)
		if k < cols {
			limit = math.MaxUint32
		}
		if v > limit {
			return fmt.Errorf("field %d: %q out of range", k+1, line[start:i])
		}
		f[k] = int64(v)
		if neg {
			f[k] = -f[k]
		}
	}
	for _, c := range line[i:] {
		if !isBlank(c) {
			return fmt.Errorf("unexpected %q after field %d", line[i:], len(f))
		}
	}
	return nil
}

// isBlank reports whether c separates fields: the ASCII white space a
// line can hold (ScanLines has already split at '\n').
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// capHint bounds header-declared counts used as allocation hints (a
// forged header must not force a huge allocation).
func capHint(n int) int {
	const lim = 1 << 16
	if n > lim {
		return lim
	}
	return n
}

func checkCounts(hits, ones int) error {
	if hits < 0 || ones <= 0 || hits > ones {
		return fmt.Errorf("impossible counts hits=%d ones=%d", hits, ones)
	}
	return nil
}

// MaxColumn returns the largest column id referenced by the rules,
// or -1 for an empty set — used to validate a rule file against the
// matrix it will be browsed with.
func MaxColumn(rs []Implication) int {
	maxCol := -1
	for _, r := range rs {
		if int(r.From) > maxCol {
			maxCol = int(r.From)
		}
		if int(r.To) > maxCol {
			maxCol = int(r.To)
		}
	}
	return maxCol
}
