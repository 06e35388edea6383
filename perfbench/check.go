package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
)

// expect is the oracle's answer for one request kind, computed while
// the inputs are generated, before any timing. Which fields apply
// depends on the kind's op.
type expect struct {
	certain bool
	// freshRead marks a read of the write-read stream: it must observe
	// a version no older than its client's last acknowledged write.
	freshRead bool
	answers   []string // sorted certain answers on the first free variable
	// total and satisfying are the exact repair counts (decimal);
	// fraction is satisfying/total, the truth a sampled estimate's 95%
	// interval should cover.
	total, satisfying string
	fraction          float64
	class             string
}

// outcome is the verdict on one response.
type outcome struct {
	ok     bool
	reason string
	// degraded marks an approximate certain verdict (the coNP search ran
	// out of steps and sampled repairs); disagree marks one that differs
	// from the oracle without being impossible.
	degraded, disagree bool
	// sampled marks an estimated count; ciMiss one whose 95% interval
	// misses the true fraction.
	sampled, ciMiss bool
	respBytes       int
	trace           *traceInfo
}

// clientState carries what a client needs to check its own
// read-your-writes order.
type clientState struct {
	lastWrite uint64
}

type traceInfo struct {
	TotalUs int64        `json:"totalUs"`
	Stages  []stageStats `json:"stages"`
}

type stageStats struct {
	Stage    string           `json:"stage"`
	Spans    int64            `json:"spans"`
	Us       int64            `json:"us"`
	MaxUs    int64            `json:"maxUs"`
	Counters map[string]int64 `json:"counters"`
}

type dbRef struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

type certainResp struct {
	Certain     bool       `json:"certain"`
	Approximate bool       `json:"approximate"`
	DB          *dbRef     `json:"db"`
	Trace       *traceInfo `json:"trace"`
}

type answersResp struct {
	Answers []map[string]string `json:"answers"`
	Count   int                 `json:"count"`
	Trace   *traceInfo          `json:"trace"`
}

type countResp struct {
	Satisfying string     `json:"satisfying"`
	Total      string     `json:"total"`
	Fraction   float64    `json:"fraction"`
	Confidence *float64   `json:"confidence"`
	Exact      bool       `json:"exact"`
	Trace      *traceInfo `json:"trace"`
}

type classifyResp struct {
	Class string `json:"class"`
}

type mutateResp struct {
	DB dbRef `json:"db"`
}

func fail(format string, args ...any) outcome {
	return outcome{reason: fmt.Sprintf(format, args...)}
}

// check verifies one response of kind k against the oracle.
func check(k *kind, status int, body []byte, st *clientState) outcome {
	if status != http.StatusOK {
		return fail("%s: status %d: %.200s", k.op, status, body)
	}
	out := outcome{ok: true, respBytes: len(body)}
	want := k.want
	switch k.op {
	case opCertain:
		var r certainResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("certain: %v", err)
		}
		out.trace = r.Trace
		if want.freshRead {
			if r.DB == nil || r.DB.Version < st.lastWrite {
				return fail("certain: read a version older than the client's last write %d", st.lastWrite)
			}
		}
		switch {
		case r.Certain == want.certain:
		case !r.Approximate:
			return fail("certain: got %v, oracle %v", r.Certain, want.certain)
		case want.certain:
			// Sampling can miss a falsifying repair, never find one in a
			// certain instance: this verdict is wrong, not approximate.
			return fail("certain: sampled false on a certain instance")
		default:
			out.disagree = true
		}
		out.degraded = r.Approximate
	case opAnswers:
		if v := k.verified.Load(); v != nil && bytes.Equal(*v, body) {
			return out
		}
		var r answersResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("answers: %v", err)
		}
		out.trace = r.Trace
		got := make([]string, 0, len(r.Answers))
		for _, a := range r.Answers {
			got = append(got, a[k.free[0]])
		}
		sort.Strings(got)
		if r.Count != len(want.answers) || !equalStrings(got, want.answers) {
			return fail("answers: got %d answers, oracle %d", len(got), len(want.answers))
		}
		if r.Trace == nil {
			b := append([]byte(nil), body...)
			k.verified.CompareAndSwap(nil, &b)
		}
	case opCount:
		var r countResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("count: %v", err)
		}
		out.trace = r.Trace
		if r.Total != want.total {
			return fail("count: total %s, oracle %s", r.Total, want.total)
		}
		if r.Exact {
			if r.Satisfying != want.satisfying {
				return fail("count: satisfying %s, oracle %s", r.Satisfying, want.satisfying)
			}
			break
		}
		if r.Confidence == nil {
			return fail("count: estimate without a confidence interval")
		}
		out.sampled = true
		// The slack absorbs float rounding at an interval edge of 1.
		out.ciMiss = math.Abs(r.Fraction-want.fraction) > *r.Confidence+1e-12
	case opClassify:
		var r classifyResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("classify: %v", err)
		}
		if r.Class != want.class {
			return fail("classify: class %s, published %s", r.Class, want.class)
		}
	case opMutate:
		var r mutateResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("mutate: %v", err)
		}
		if r.DB.Version <= st.lastWrite {
			return fail("mutate: version %d not after the client's previous write %d", r.DB.Version, st.lastWrite)
		}
		st.lastWrite = r.DB.Version
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
