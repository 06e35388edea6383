package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
)

// mixedUpload stores one relation name under two signatures: R[2,1] on
// line 1 and R[3,1] on line 2.
const mixedUpload = "R(a | b)\nR(c | d, e)\nS(b | 1)\nS(d | 1)\n"

// TestMixedSignatureUploadRejected: an upload that gives one relation
// two signatures is a 400 naming the line and both signatures, and
// nothing is stored. Its consistent part answers the same on every
// engine, sharded or not.
func TestMixedSignatureUploadRejected(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := New(Config{CacheSize: 64, MaxWorkers: 4, Shards: shards}).Handler()
			rec := do(t, h, "PUT", "/v1/db/mixed", mixedUpload, nil)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("mixed upload: %d %s", rec.Code, rec.Body.String())
			}
			for _, frag := range []string{"line 2", "R[3,1]", "R[2,1]"} {
				if !strings.Contains(rec.Body.String(), frag) {
					t.Errorf("upload error %s does not mention %q", rec.Body.String(), frag)
				}
			}
			if rec := do(t, h, "GET", "/v1/db/mixed", "", nil); rec.Code != http.StatusNotFound {
				t.Fatalf("rejected upload was stored: %d %s", rec.Code, rec.Body.String())
			}

			if rec := do(t, h, "PUT", "/v1/db/mixed", "R(a | b)\nS(b | 1)\nS(d | 1)\n", nil); rec.Code != 200 {
				t.Fatalf("consistent upload: %d %s", rec.Code, rec.Body.String())
			}
			for _, engine := range []string{"auto", "fo", "ptime", "conp", "naive"} {
				var ans answersResponse
				rec := do(t, h, "POST", "/v1/answers", fmt.Sprintf(
					`{"query": "R(x | y), S(y | z)", "free": ["x"], "db": "mixed", "engine": %q}`, engine), &ans)
				if rec.Code != 200 {
					t.Fatalf("answers (%s): %d %s", engine, rec.Code, rec.Body.String())
				}
				var got []string
				for _, a := range ans.Answers {
					got = append(got, a["x"])
				}
				sort.Strings(got)
				if strings.Join(got, ",") != "a" {
					t.Errorf("answers (%s) = %v, want [a]", engine, got)
				}
			}
			var cnt countResponse
			rec = do(t, h, "POST", "/v1/count", `{"query": "R(x | y), S(y | z)", "db": "mixed"}`, &cnt)
			if rec.Code != 200 || cnt.Satisfying != "1" || cnt.Total != "1" {
				t.Errorf("count: %d %s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestQuerySignatureMismatchIs400: a query that gives a stored relation
// another signature is a 400 on every endpoint and engine — never a
// panic, never a 5xx.
func TestQuerySignatureMismatchIs400(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := New(Config{CacheSize: 64, MaxWorkers: 4, Shards: shards}).Handler()
			if rec := do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nS(b | 1)\n", nil); rec.Code != 200 {
				t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
			}
			const q = `"query": "R(x | y, w), S(y | z)", "db": "prod"`
			for _, engine := range []string{"auto", "fo", "ptime", "conp", "naive"} {
				for _, req := range []struct{ path, body string }{
					{"/v1/certain", fmt.Sprintf(`{%s, "engine": %q}`, q, engine)},
					{"/v1/answers", fmt.Sprintf(`{%s, "engine": %q, "free": ["x"]}`, q, engine)},
					{"/v1/count", fmt.Sprintf(`{%s, "engine": %q}`, q, engine)},
				} {
					rec := do(t, h, "POST", req.path, req.body, nil)
					if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "stored signature") {
						t.Errorf("%s (%s): %d %s", req.path, engine, rec.Code, rec.Body.String())
					}
				}
			}
		})
	}
}

// TestMixedSignatureMutationRejected: a mutation that gives a relation
// a second signature is a 400 and publishes nothing, while valid
// mutations sent concurrently (and so group-committed with it) commit.
func TestMixedSignatureMutationRejected(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nS(b | 1)\n", nil); rec.Code != 200 {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	for _, body := range []string{
		`{"insert": ["R(c | d, e)"]}`,
		`{"upsert": [["R(a | b, c)"]]}`,
		`{"delete": ["R(a | b, c)"]}`,
		`{"insert": ["S(x | 1)", "S(y | 1, 2)"]}`,
	} {
		rec := do(t, h, "POST", "/v1/db/prod/facts", body, nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "signature") {
			t.Errorf("%s: %d %s", body, rec.Code, rec.Body.String())
		}
	}
	var info snapshotInfo
	do(t, h, "GET", "/v1/db/prod", "", &info)
	if info.Version != 1 || info.Facts != 2 {
		t.Fatalf("rejected mutations changed the database: %+v", info)
	}

	const writers = 8
	codes := make([]int, 2*writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			codes[2*i] = do(t, h, "POST", "/v1/db/prod/facts",
				fmt.Sprintf(`{"insert": ["R(bad%d | d, e)"]}`, i), nil).Code
		}(i)
		go func(i int) {
			defer wg.Done()
			codes[2*i+1] = do(t, h, "POST", "/v1/db/prod/facts",
				fmt.Sprintf(`{"insert": ["R(ok%d | b)"]}`, i), nil).Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		want := http.StatusBadRequest
		if i%2 == 1 {
			want = http.StatusOK
		}
		if code != want {
			t.Errorf("writer %d: %d, want %d", i, code, want)
		}
	}
	do(t, h, "GET", "/v1/db/prod", "", &info)
	if info.Facts != 2+writers {
		t.Errorf("after concurrent writes: %+v, want %d facts", info, 2+writers)
	}
	var cert certainResponse
	rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "prod"}`, &cert)
	if rec.Code != 200 || !cert.Certain {
		t.Errorf("certain after writes: %d %s", rec.Code, rec.Body.String())
	}
}
