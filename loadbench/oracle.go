package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/server"
)

// The output oracle. Every mine reply is checked against a reference
// rule set computed by the bench itself: core's naive miners on the
// bench's copy of the data (static workloads), or the bench's own
// core.Incremental mirror of the growing dataset (append-mix). The
// reference is rendered the way the server renders a reply, and the
// reply's "rules" array must match it byte for byte — so a wrong rule,
// a missing one, a wrong count, or a wrong wire order all fail.

// rulesMark opens the last field of a mine reply; everything from it
// to the end of the body is the rendered rule list.
var rulesMark = []byte("\n  \"rules\": ")

// replyHead is the part of a mine reply before the rule list.
type replyHead struct {
	Total     int    `json:"total_rules"`
	Truncated bool   `json:"truncated"`
	Source    string `json:"source"`
}

// splitReply separates a mine reply into its head and its rendered
// rule list.
func splitReply(body []byte) (replyHead, []byte, error) {
	var h replyHead
	i := bytes.Index(body, rulesMark)
	if i < 0 {
		return h, nil, fmt.Errorf("reply has no rule list")
	}
	head := append(bytes.TrimSuffix(append([]byte(nil), body[:i]...), []byte(",")), '}')
	if err := json.Unmarshal(head, &h); err != nil {
		return h, nil, fmt.Errorf("reply head: %v", err)
	}
	return h, body[i:], nil
}

// want is the reference reply to one mine.
type want struct {
	total  int
	suffix []byte // rendered rule list, from rulesMark on
}

// check reports why a mine reply differs from w, or nil.
func (w want) check(body []byte) (source string, err error) {
	h, suffix, err := splitReply(body)
	if err != nil {
		return "", err
	}
	switch {
	case h.Truncated:
		return h.Source, fmt.Errorf("reply truncated at %d rules", h.Total)
	case h.Total != w.total:
		return h.Source, fmt.Errorf("reply has %d rules, reference %d", h.Total, w.total)
	case !bytes.Equal(suffix, w.suffix):
		return h.Source, fmt.Errorf("rule list differs from the reference")
	}
	return h.Source, nil
}

func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ") // the server's writeJSON layout
	if err := enc.Encode(v); err != nil {
		panic(err) // wire structs always encode
	}
	return b.Bytes()
}

// renderImps renders an implication mine reply in the server's wire
// order: confidence descending, then column ids.
func renderImps(threshold int, rs []rules.Implication, label func(matrix.Col) string, source string) []byte {
	rs = append([]rules.Implication(nil), rs...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Confidence() != rs[j].Confidence() {
			return rs[i].Confidence() > rs[j].Confidence()
		}
		if rs[i].From != rs[j].From {
			return rs[i].From < rs[j].From
		}
		return rs[i].To < rs[j].To
	})
	resp := server.MineResponse[server.ImplicationWire]{
		Dataset: datasetName, Threshold: threshold, Total: len(rs), Source: source,
	}
	for _, r := range rs {
		resp.Rules = append(resp.Rules, server.ImplicationWire{
			From: label(r.From), To: label(r.To),
			Confidence: r.Confidence(), Hits: r.Hits, Ones: r.Ones,
		})
	}
	return encodeJSON(resp)
}

// renderSims renders a similarity mine reply in the server's wire
// order: each pair rarer column first (ids break ties), then similarity
// descending, then column ids.
func renderSims(threshold int, rs []rules.Similarity, label func(matrix.Col) string, source string) []byte {
	rs = append([]rules.Similarity(nil), rs...)
	for i := range rs {
		if rs[i].OnesB < rs[i].OnesA || (rs[i].OnesB == rs[i].OnesA && rs[i].B < rs[i].A) {
			rs[i].A, rs[i].B = rs[i].B, rs[i].A
			rs[i].OnesA, rs[i].OnesB = rs[i].OnesB, rs[i].OnesA
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Value() != rs[j].Value() {
			return rs[i].Value() > rs[j].Value()
		}
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
	resp := server.MineResponse[server.SimilarityWire]{
		Dataset: datasetName, Threshold: threshold, Total: len(rs), Source: source,
	}
	for _, r := range rs {
		resp.Rules = append(resp.Rules, server.SimilarityWire{
			A: label(r.A), B: label(r.B),
			Similarity: r.Value(), Hits: r.Hits, OnesA: r.OnesA, OnesB: r.OnesB,
		})
	}
	return encodeJSON(resp)
}

func wantOf(body []byte) want {
	h, suffix, err := splitReply(body)
	if err != nil {
		panic(err) // renderImps/renderSims always write a rule list
	}
	return want{total: h.Total, suffix: suffix}
}

// naiveOracle computes the reference reply for every key from core's
// naive miners on m: one naive pass per family at its lowest threshold,
// filtered up to each higher one with the engines' exact rational test.
func naiveOracle(m *matrix.Matrix, label func(matrix.Col) string) map[key]want {
	lowest := map[string]int{}
	for _, k := range keys {
		if t, ok := lowest[k.mode]; !ok || k.threshold < t {
			lowest[k.mode] = k.threshold
		}
	}
	var imps []rules.Implication
	var sims []rules.Similarity
	if t, ok := lowest["imp"]; ok {
		imps = core.NaiveImplications(m, core.FromPercent(t))
	}
	if t, ok := lowest["sim"]; ok {
		sims = core.NaiveSimilarities(m, core.FromPercent(t))
	}
	out := make(map[key]want, len(keys))
	for _, k := range keys {
		th := core.FromPercent(k.threshold)
		if k.mode == "imp" {
			var rs []rules.Implication
			for _, r := range imps {
				if th.Meets(r.Hits, r.Ones) {
					rs = append(rs, r)
				}
			}
			out[k] = wantOf(renderImps(k.threshold, rs, label, ""))
		} else {
			var rs []rules.Similarity
			for _, r := range sims {
				if th.MeetsSim(r.Hits, r.OnesA, r.OnesB) {
					rs = append(rs, r)
				}
			}
			out[k] = wantOf(renderSims(k.threshold, rs, label, ""))
		}
	}
	return out
}

// incWant is the reference reply for k derived from an incremental
// mirror of the dataset.
func incWant(inc *core.Incremental, k key, label func(matrix.Col) string) want {
	th := core.FromPercent(k.threshold)
	if k.mode == "imp" {
		return wantOf(renderImps(k.threshold, inc.Implications(th, core.Options{}), label, ""))
	}
	return wantOf(renderSims(k.threshold, inc.Similarities(th, core.Options{}), label, ""))
}
