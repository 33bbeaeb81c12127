package rules

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadImplications: whatever the reader accepts holds only possible
// counts, was accepted as the same rules by the Sscanf reader it
// replaced (the byte loop is only ever stricter), and survives a
// write-then-read round trip unchanged.
func FuzzReadImplications(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteImplications(&seed, []Implication{{From: 0, To: 1, Hits: 2, Ones: 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("dmcrules imp 1 0\n")
	f.Add("dmcrules imp 1 1\n1 2 3 4\n")
	f.Add("dmcrules imp 1 2\r\n 1\t2 +3 4 \r\n4294967295 0 -0 9223372036854775807\n")
	f.Fuzz(func(t *testing.T, in string) {
		rs, err := ReadImplications(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range rs {
			if r.Hits < 0 || r.Ones <= 0 || r.Hits > r.Ones {
				t.Fatalf("accepted impossible rule %v", r)
			}
		}
		if old, err := sscanfImplications(strings.NewReader(in)); err != nil || !reflect.DeepEqual(old, rs) {
			t.Fatalf("read %v; the Sscanf reader read %v, %v", rs, old, err)
		}
		var buf bytes.Buffer
		if err := WriteImplications(&buf, rs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadImplications(&buf)
		if err != nil || !reflect.DeepEqual(back, rs) {
			t.Fatalf("round trip: %v, %v; want %v", back, err, rs)
		}
	})
}

// FuzzReadSimilarities: whatever the reader accepts holds only possible
// counts and survives a write-then-read round trip unchanged.
func FuzzReadSimilarities(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteSimilarities(&seed, []Similarity{{A: 0, B: 1, Hits: 1, OnesA: 2, OnesB: 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("dmcrules sim 1 0\n")
	f.Add("dmcrules sim 1 2\r\n 1\t2 +3 4 5 \r\n4294967295 0 -0 1 9223372036854775807\n")
	f.Fuzz(func(t *testing.T, in string) {
		rs, err := ReadSimilarities(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range rs {
			if r.Hits < 0 || r.Hits > r.OnesA || r.Hits > r.OnesB {
				t.Fatalf("accepted impossible rule %v", r)
			}
		}
		var buf bytes.Buffer
		if err := WriteSimilarities(&buf, rs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSimilarities(&buf)
		if err != nil || !reflect.DeepEqual(back, rs) {
			t.Fatalf("round trip: %v, %v; want %v", back, err, rs)
		}
	})
}
