package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"cqa/internal/answer"
)

// The /v1/answers body is written straight from the answer batch (or,
// routed, the merged string rows) into a pooled buffer: no map per
// answer and no reflection over them. The bytes are exactly what
// writeJSON renders for the response object
//
//	{"query", "free", "answers": [{var: const, ...}, ...], "count",
//	 "class", "cached", "db"?, "trace"?}
//
// with two-space indentation, sorted object keys and encoding/json's
// string escaping; FuzzAnswersBody pins the equivalence.

// answersHead is everything of an answers response but the answers.
type answersHead struct {
	Query  string
	Free   []string
	Class  string
	Cached bool
	DB     *dbRef     // omitted when nil
	Trace  *traceInfo // omitted when nil
}

// answerList is an answer set that renders itself as a JSON array:
// answer.Batch on the local paths, answer.Rows on the routed one.
type answerList interface {
	Len() int
	AppendJSON(dst []byte, prefix string) []byte
}

// bodyBufs recycles answers response buffers across requests.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAnswers writes a 200 answers response.
func writeAnswers(w http.ResponseWriter, h *answersHead, list answerList) {
	bp := bodyBufs.Get().(*[]byte)
	body := appendAnswersBody((*bp)[:0], h, list)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client went away; nothing to do
	*bp = body
	bodyBufs.Put(bp)
}

// appendAnswersBody appends the indented response object and the
// trailing newline json.Encoder ends every value with.
func appendAnswersBody(dst []byte, h *answersHead, list answerList) []byte {
	dst = append(dst, "{\n  \"query\": "...)
	dst = answer.AppendString(dst, h.Query)
	dst = append(dst, ",\n  \"free\": "...)
	switch {
	case h.Free == nil:
		dst = append(dst, "null"...)
	case len(h.Free) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i, v := range h.Free {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    "...)
			dst = answer.AppendString(dst, v)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"answers\": "...)
	dst = list.AppendJSON(dst, "  ")
	dst = append(dst, ",\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(list.Len()), 10)
	dst = append(dst, ",\n  \"class\": "...)
	dst = answer.AppendString(dst, h.Class)
	dst = append(dst, ",\n  \"cached\": "...)
	dst = strconv.AppendBool(dst, h.Cached)
	if h.DB != nil {
		dst = appendIndentedField(dst, ",\n  \"db\": ", h.DB)
	}
	if h.Trace != nil {
		dst = appendIndentedField(dst, ",\n  \"trace\": ", h.Trace)
	}
	return append(dst, "\n}\n"...)
}

// appendIndentedField appends one more top-level field (head is the
// separator and key) whose value is rendered by encoding/json and
// indented one level deep, as the whole-object encoding places it.
func appendIndentedField(dst []byte, head string, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte("null") // dbRef and traceInfo always marshal
	}
	dst = append(dst, head...)
	buf := bytes.NewBuffer(dst)
	json.Indent(buf, raw, "  ", "  ") //nolint:errcheck // raw is valid JSON
	return buf.Bytes()
}
