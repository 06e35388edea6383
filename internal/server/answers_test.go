package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cqa/internal/answer"
	"cqa/internal/query"
	"cqa/internal/sym"
	"cqa/internal/trace"
)

// answersResponse is the /v1/answers response schema: the object the
// body writer renders without building it. Tests decode bodies into it,
// and legacyAnswersBody encodes it the generic way as the reference.
type answersResponse struct {
	Query   string              `json:"query"`
	Free    []string            `json:"free"`
	Answers []map[string]string `json:"answers"`
	Count   int                 `json:"count"`
	Class   string              `json:"class"`
	Cached  bool                `json:"cached"`
	DB      *dbRef              `json:"db,omitempty"`
	Trace   *traceInfo          `json:"trace,omitempty"`
}

// legacyAnswersBody renders the response through a map per answer and
// writeJSON: the reference for the direct writer.
func legacyAnswersBody(h *answersHead, rows answer.Rows) []byte {
	answers := make([]map[string]string, rows.Len())
	w := len(rows.Vars)
	for i := range answers {
		m := make(map[string]string, w)
		for j, x := range rows.Vars {
			m[x] = rows.Vals[i*w+j]
		}
		answers[i] = m
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, answersResponse{
		Query:   h.Query,
		Free:    h.Free,
		Answers: answers,
		Count:   len(answers),
		Class:   h.Class,
		Cached:  h.Cached,
		DB:      h.DB,
		Trace:   h.Trace,
	})
	return rec.Body.Bytes()
}

// FuzzAnswersBody: the direct writer renders exactly the bytes of the
// generic encoding, from a batch and from string rows, and a sorted
// batch is in Valuation.Key order. consts is split on '|' into the
// constants that fill the rows round-robin; free is split on ','.
func FuzzAnswersBody(f *testing.F) {
	// HTML-sensitive and escaped bytes, control bytes, U+2028/U+2029
	// and invalid UTF-8.
	f.Add("R(x | y)", "x", "<a>|&amp;|\"q\"|back\\slash|\x00\x01\x1f\x7f|\b\f\n\r\t|\u2028|\u2029|\xff\xfe|ok\xc3", uint8(9), true, false)
	// Prefix pairs whose next byte sorts below ',' (and a comma tie).
	f.Add("R(x, y | z)", "y,x", "a|a!|a,b|a+|a-|a|b|a\x00", uint8(7), false, true)
	// Duplicate, unsorted free lists.
	f.Add("R(x | y), S(y | z)", "z,x,z,y", "c|b|a", uint8(4), true, true)
	// No answers.
	f.Add("R(x | y)", "x", "", uint8(0), true, true)
	f.Add("R(x | y)", "x,y", "a|b", uint8(0), false, false)
	f.Fuzz(func(t *testing.T, q, free, consts string, nrows uint8, withDB, withTrace bool) {
		var freeVars []query.Var
		var freeNames []string
		for _, name := range strings.Split(free, ",") {
			freeVars = append(freeVars, query.Var(name))
			freeNames = append(freeNames, name)
		}
		vars := answer.Columns(freeVars)
		pool := strings.Split(consts, "|")
		vals := make([]string, int(nrows)*len(vars))
		for k := range vals {
			vals[k] = pool[k%len(pool)]
		}
		rows := answer.Rows{Vars: vars, Vals: vals}
		syms := sym.NewTable()
		batch := answer.Batch{Vars: vars, Syms: syms}
		for _, v := range vals {
			batch.IDs = append(batch.IDs, syms.Intern(v))
		}
		h := &answersHead{Query: q, Free: freeNames, Class: "FO", Cached: nrows%2 == 0}
		if withDB {
			h.DB = &dbRef{Name: consts, Version: uint64(nrows)}
		}
		if withTrace {
			h.Trace = &traceInfo{TotalUs: int64(nrows), Stages: []trace.StageStats{{
				Stage: "eliminator", Spans: 1, Micros: int64(nrows), Counters: map[string]int64{"steps": 3},
			}}}
		}
		want := legacyAnswersBody(h, rows)
		if got := appendAnswersBody(nil, h, batch); !bytes.Equal(got, want) {
			t.Fatalf("batch body differs\ngot:  %q\nwant: %q", got, want)
		}
		if got := appendAnswersBody(nil, h, rows); !bytes.Equal(got, want) {
			t.Fatalf("rows body differs\ngot:  %q\nwant: %q", got, want)
		}

		batch.Sort()
		sorted := batch.Rows().Valuations()
		for i := 1; i < len(sorted); i++ {
			if a, b := sorted[i-1].Key(), sorted[i].Key(); a > b {
				t.Fatalf("sorted batch out of key order at row %d: %q > %q", i, a, b)
			}
		}
	})
}

// TestAnswersOneOrderAcrossTiers: a flat server, a server with two
// local shards and a front routing to a shard node return the same
// body, answers in binding-key order, on the sweep path (free x, the
// top atom's key) and on the candidate path (free y). Candidate answers
// used to come back in first-seen order on the flat and local-shard
// paths and sorted only when routed.
func TestAnswersOneOrderAcrossTiers(t *testing.T) {
	const facts = "R(a1 | zz)\nR(a2 | bb)\nR(a3 | mm)\nS(zz | c)\nS(bb | c)\nS(mm | c)\n"
	node := New(Config{CacheSize: 16, MaxWorkers: 4, ShardNode: true})
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	servers := map[string]*Server{
		"flat":    New(Config{CacheSize: 16, MaxWorkers: 4}),
		"sharded": New(Config{CacheSize: 16, MaxWorkers: 4, Shards: 2}),
		"routed":  New(Config{CacheSize: 16, MaxWorkers: 4, ClusterNodes: []string{ts.URL}, ClusterShards: 3}),
	}
	for _, s := range append([]*Server{node}, servers["flat"], servers["sharded"], servers["routed"]) {
		if _, err := s.Store().PutFacts("abc", facts); err != nil {
			t.Fatal(err)
		}
	}
	for free, want := range map[string][]string{"x": {"a1", "a2", "a3"}, "y": {"bb", "mm", "zz"}} {
		body := fmt.Sprintf(`{"query": "R(x | y), S(y | z)", "db": "abc", "free": [%q]}`, free)
		var flat string
		for _, tier := range []string{"flat", "sharded", "routed"} {
			var resp answersResponse
			rec := do(t, servers[tier].Handler(), "POST", "/v1/answers", body, &resp)
			if rec.Code != 200 {
				t.Fatalf("%s answers on %s: %d %s", tier, free, rec.Code, rec.Body.String())
			}
			var got []string
			for _, a := range resp.Answers {
				got = append(got, a[free])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s answers on %s = %v, want %v", tier, free, got, want)
			}
			if tier == "flat" {
				flat = rec.Body.String()
			} else if rec.Body.String() != flat {
				t.Fatalf("%s body on %s differs from flat:\n%s\nflat:\n%s", tier, free, rec.Body.String(), flat)
			}
		}
	}
}
