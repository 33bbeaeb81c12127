package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dmc/internal/matrix"
)

// A mine reply is appended by hand instead of through writeJSON: on a
// cache hit, encoding/json's reflection and its indentation pass took
// about 40% of the request (BenchmarkMineReply). The bytes are exactly
// writeJSON's — a json.Encoder with SetIndent("", "  ") and HTML
// escaping — which TestMineReplyMatchesEncodingJSON and FuzzMineReply
// pin.

// replyBufs holds reply buffers for reuse. A buffer that grew past
// maxPooledReply is left to the collector and the one it grew from goes
// back instead, so an occasional huge reply does not stay resident. The
// cap holds every reply of the load benchmark's keys; a 64 KiB cap made
// cache-hot's larger replies allocate and raised its peak heap by about
// 10%.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// writeMineReply answers a mine with status 200 and the reply
// appendMineReply renders.
func writeMineReply[R, W any](w http.ResponseWriter, pl *pipeline[R, W], head MineResponse[W], rs []R, limit int, label func(matrix.Col) string) {
	bp := replyBufs.Get().(*[]byte)
	b := appendMineReply((*bp)[:0], pl, head, rs, limit, label)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*bp = b
	}
	replyBufs.Put(bp)
}

// appendMineReply appends the reply to a mine whose rules, in wire
// order, are rs: head's dataset, threshold, elapsed time and source,
// total_rules = len(rs), and the first limit rules (limit >= 1), each
// through pl.wire with label. It is the text writeJSON writes for head
// with Total, Truncated and Rules filled in that way.
func appendMineReply[R, W any](b []byte, pl *pipeline[R, W], head MineResponse[W], rs []R, limit int, label func(matrix.Col) string) []byte {
	n := min(len(rs), limit)
	b = append(b, "{\n  \"dataset\": "...)
	b = appendJSONString(b, head.Dataset)
	b = append(b, ",\n  \"threshold_percent\": "...)
	b = strconv.AppendInt(b, int64(head.Threshold), 10)
	b = append(b, ",\n  \"total_rules\": "...)
	b = strconv.AppendInt(b, int64(len(rs)), 10)
	b = append(b, ",\n  \"truncated\": "...)
	b = strconv.AppendBool(b, n < len(rs))
	b = append(b, ",\n  \"elapsed_ms\": "...)
	b = strconv.AppendInt(b, head.ElapsedMS, 10)
	if head.Source != "" {
		b = append(b, ",\n  \"source\": "...)
		b = appendJSONString(b, head.Source)
	}
	b = append(b, ",\n  \"rules\": "...)
	if n == 0 {
		return append(b, "null\n}\n"...)
	}
	b = append(b, '[')
	for i, r := range rs[:n] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      "...)
		b = pl.appendWire(pl.wire(label, r), b)
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]\n}\n"...)
}

// appendJSON appends r's fields as a mine reply's rule object holds
// them, between its braces.
func (r ImplicationWire) appendJSON(b []byte) []byte {
	b = append(b, "\"from\": "...)
	b = appendJSONString(b, r.From)
	b = append(b, ",\n      \"to\": "...)
	b = appendJSONString(b, r.To)
	b = append(b, ",\n      \"confidence\": "...)
	b = appendJSONFloat(b, r.Confidence)
	b = append(b, ",\n      \"hits\": "...)
	b = strconv.AppendInt(b, int64(r.Hits), 10)
	b = append(b, ",\n      \"ones\": "...)
	return strconv.AppendInt(b, int64(r.Ones), 10)
}

// appendJSON appends r's fields as a mine reply's rule object holds
// them, between its braces.
func (r SimilarityWire) appendJSON(b []byte) []byte {
	b = append(b, "\"a\": "...)
	b = appendJSONString(b, r.A)
	b = append(b, ",\n      \"b\": "...)
	b = appendJSONString(b, r.B)
	b = append(b, ",\n      \"similarity\": "...)
	b = appendJSONFloat(b, r.Similarity)
	b = append(b, ",\n      \"hits\": "...)
	b = strconv.AppendInt(b, int64(r.Hits), 10)
	b = append(b, ",\n      \"ones_a\": "...)
	b = strconv.AppendInt(b, int64(r.OnesA), 10)
	b = append(b, ",\n      \"ones_b\": "...)
	return strconv.AppendInt(b, int64(r.OnesB), 10)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded. f is
// finite (a confidence or a similarity).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: '"' and '\\' backslashed, \b \f \n \r \t by
// name, other control bytes and '<', '>', '&' as \u00XX, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
