//go:build !race

// The allocation pin of the answers body path. Excluded under the race
// detector, whose instrumentation inserts allocations the production
// build does not perform.

package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// answersChain is a stored chain over R(x | y), S(y | z) whose certain
// answers on x are exactly n blocks out of 2n: every certain block
// R(a_i | b_i) continues into S(b_i | c_i), every other block R(d_i |
// e_i) dead-ends. Constants are numbered in a shuffled order, so the
// interning order of the columns is not their string order.
func answersChain(n int, seed int64) *db.DB {
	r := schema.Relation{Name: "R", Arity: 2, KeyLen: 1}
	s := schema.Relation{Name: "S", Arity: 2, KeyLen: 1}
	rng := rand.New(rand.NewSource(seed))
	d := db.New()
	for _, i := range rng.Perm(n) {
		d.Add(db.NewFact(r, query.Const(fmt.Sprintf("a%d", i)), query.Const(fmt.Sprintf("b%d", i))))
		d.Add(db.NewFact(s, query.Const(fmt.Sprintf("b%d", i)), query.Const(fmt.Sprintf("c%d", i))))
		d.Add(db.NewFact(r, query.Const(fmt.Sprintf("d%d", i)), query.Const(fmt.Sprintf("e%d", i))))
	}
	return d
}

// discardWriter is a ResponseWriter that keeps only the body size, so
// the pin counts the handler's allocations, not a recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestAnswersAllocsIndependentOfCount pins the batch path: a warm
// sweepable /v1/answers request allocates a fixed number of times
// whatever the number of answers, flat and at two shards. A map,
// Valuation or key string per answer would add tens of thousands.
func TestAnswersAllocsIndependentOfCount(t *testing.T) {
	const small, large = 1000, 43000
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(Config{CacheSize: 16, MaxWorkers: 4, Shards: shards})
			h := s.Handler()
			allocs := map[int]float64{}
			for _, n := range []int{small, large} {
				name := fmt.Sprintf("chain%d", n)
				s.store.Put(name, answersChain(n, int64(n)))
				body := fmt.Sprintf(`{"query": "R(x | y), S(y | z)", "db": %q, "free": ["x"]}`, name)
				run := func() {
					w := &discardWriter{header: http.Header{}}
					h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/answers", strings.NewReader(body)))
					if w.status != http.StatusOK || w.n < 20*n {
						t.Fatalf("answers on %s: status %d, %d bytes", name, w.status, w.n)
					}
				}
				run() // warm: plan, index, shard pool, pooled buffers
				allocs[n] = testing.AllocsPerRun(5, run)
			}
			t.Logf("allocs/request: %.0f at %d answers, %.0f at %d", allocs[small], small, allocs[large], large)
			if allocs[large]-allocs[small] > 8 {
				t.Fatalf("allocs grow with the answer count: %.0f at %d answers, %.0f at %d",
					allocs[small], small, allocs[large], large)
			}
		})
	}
}

// BenchmarkServeAnswers is one warm sweepable /v1/answers request with
// 43k answers over a stored snapshot, flat and at two shards.
func BenchmarkServeAnswers(b *testing.B) {
	d := answersChain(43000, 1)
	for _, shards := range []int{0, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(Config{CacheSize: 16, MaxWorkers: 4, Shards: shards})
			h := s.Handler()
			s.store.Put("chain", d)
			body := `{"query": "R(x | y), S(y | z)", "db": "chain", "free": ["x"]}`
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := &discardWriter{header: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/answers", strings.NewReader(body)))
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}
