package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cqa/internal/server"
	"cqa/internal/wal"
)

// instance is one in-process server: the handler cqa-serve mounts,
// driven by direct ServeHTTP calls (no sockets), plus its journal when
// the workload writes.
type instance struct {
	srv    *server.Server
	h      http.Handler
	log    *wal.Log
	walDir string
	// blocks is the block count of each stored snapshot after setup.
	blocks map[string]int
}

// close stops the snapshot shard pools and removes the journal.
func (in *instance) close() error {
	for _, snap := range in.srv.Store().List() {
		snap.ClosePool()
	}
	if in.log == nil {
		return nil
	}
	err := in.log.Close()
	if rerr := os.RemoveAll(in.walDir); err == nil {
		err = rerr
	}
	return err
}

// recorder is a reusable http.ResponseWriter that keeps the body.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
}

func newRequest(method, path string, body []byte, traced bool) *http.Request {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if traced {
		req.Header.Set("X-CQA-Trace", "1")
	}
	return req
}

// serve runs one request through the handler and returns its latency.
func (in *instance) serve(rec *recorder, method, path string, body []byte, traced bool) time.Duration {
	req := newRequest(method, path, body, traced)
	rec.reset()
	start := time.Now()
	in.h.ServeHTTP(rec, req)
	return time.Since(start)
}

// setup takes an empty server to a warm one: it uploads every snapshot,
// issues each repeating request once (building the snapshot indexes,
// columnar views, shard pools and plans) and checks those responses.
func setup(w *mix, tmpRoot string) (*instance, time.Duration, error) {
	start := time.Now()
	srv := server.New(server.Config{Shards: w.shards})
	in := &instance{srv: srv, h: srv.Handler(), blocks: map[string]int{}}
	if w.wal {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, 0, err
		}
		l, err := wal.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		in.log, in.walDir = l, dir
		srv.Store().SetWAL(l)
	}
	rec := newRecorder()
	for _, u := range w.uploads {
		in.serve(rec, http.MethodPut, "/v1/db/"+u.name, []byte(u.facts), false)
		if rec.code != http.StatusOK {
			in.close()
			return nil, 0, fmt.Errorf("setup: upload %s: status %d: %.200s", u.name, rec.code, rec.buf.Bytes())
		}
	}
	var st clientState
	for _, k := range w.warm {
		in.serve(rec, http.MethodPost, k.path, k.body, false)
		if o := check(k, rec.code, rec.buf.Bytes(), &st); !o.ok {
			in.close()
			return nil, 0, fmt.Errorf("setup: warm-up request: %s", o.reason)
		}
	}
	if w.shards > 1 {
		// Shard indexes build in the background; the server is warm when
		// readiness says no build is in flight.
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			in.serve(rec, http.MethodGet, "/readyz", nil, false)
			if rec.code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				in.close()
				return nil, 0, fmt.Errorf("setup: shard pools not ready after a minute: %s", rec.buf.Bytes())
			}
		}
	}
	elapsed := time.Since(start)
	for _, snap := range srv.Store().List() {
		in.blocks[snap.Name] = snap.Blocks
	}
	return in, elapsed, nil
}

// stageAgg sums one program trace stage over the responses that had it.
type stageAgg struct {
	reqs, spans, us int64
	counters        map[string]int64
}

// windowResult is what one timed window of the closed loop observed.
type windowResult struct {
	elapsed           time.Duration
	lat               [numOps][]float64 // ms
	attempted, failed int
	issued            int // one past the highest stream index served
	perKind           map[*kind]int
	kindMs            map[*kind]float64 // summed latency per kind
	reasons           []string
	respBytes         int64
	certainN          int
	degraded          int
	disagree          int
	sampled, ciMisses int
	mutations         int
	versions          map[uint64]bool
	// Program trace data, traced windows only.
	stages   map[string]*stageAgg
	mergeUs  float64 // sharded responses: time outside the slowest shard
	shardReq int
	imbal    float64 // sum over sharded responses of max/mean shard span
	stepsPB  float64 // eliminator steps per snapshot block, summed
	stepsN   int
}

func (r *windowResult) merge(o *windowResult) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for k, n := range o.perKind {
		r.perKind[k] += n
	}
	for k, v := range o.kindMs {
		r.kindMs[k] += v
	}
	if len(r.reasons) < 5 {
		r.reasons = append(r.reasons, o.reasons...)
	}
	r.respBytes += o.respBytes
	r.certainN += o.certainN
	r.degraded += o.degraded
	r.disagree += o.disagree
	r.sampled += o.sampled
	r.ciMisses += o.ciMisses
	r.mutations += o.mutations
	for v := range o.versions {
		r.versions[v] = true
	}
	for name, a := range o.stages {
		b := r.stages[name]
		if b == nil {
			b = &stageAgg{counters: map[string]int64{}}
			r.stages[name] = b
		}
		b.reqs += a.reqs
		b.spans += a.spans
		b.us += a.us
		for c, v := range a.counters {
			b.counters[c] += v
		}
	}
	r.mergeUs += o.mergeUs
	r.shardReq += o.shardReq
	r.imbal += o.imbal
	r.stepsPB += o.stepsPB
	r.stepsN += o.stepsN
}

func newWindowResult() *windowResult {
	return &windowResult{perKind: map[*kind]int{}, kindMs: map[*kind]float64{}, versions: map[uint64]bool{}, stages: map[string]*stageAgg{}}
}

// planStages are recorded inside the plan cache and the store, which
// the direct calls time on their own; the rest are engine stages.
var planStages = map[string]bool{"normalize": true, "compile": true, "index-build": true}

// critPath attributes an evaluation's stage times along its critical
// path, in µs per stage: the plan-cache and store stages are left out
// (their callers are timed directly), and inside a sharded evaluation
// the slowest shard stands for the per-shard stages it ran in parallel.
func critPath(stages []stageStats) map[string]float64 {
	sharded := false
	for _, s := range stages {
		sharded = sharded || s.Stage == "shard"
	}
	out := map[string]float64{}
	for _, s := range stages {
		switch {
		case planStages[s.Stage]:
		case sharded && (s.Stage == "eliminator" || s.Stage == "shard-index"):
		case s.Stage == "shard":
			out[s.Stage] += float64(s.MaxUs)
		default:
			out[s.Stage] += float64(s.Us)
		}
	}
	return out
}

// addTrace folds one response's stage breakdown into the window.
func (r *windowResult) addTrace(t *traceInfo, blocks int) {
	var shard *stageStats
	for i := range t.Stages {
		s := &t.Stages[i]
		a := r.stages[s.Stage]
		if a == nil {
			a = &stageAgg{counters: map[string]int64{}}
			r.stages[s.Stage] = a
		}
		a.reqs++
		a.spans += s.Spans
		a.us += s.Us
		for c, v := range s.Counters {
			a.counters[c] += v
		}
		if s.Stage == "shard" {
			shard = s
		}
		if s.Stage == "eliminator" && blocks > 0 {
			r.stepsPB += float64(s.Counters["steps"]) / float64(blocks)
			r.stepsN++
		}
	}
	if shard != nil && shard.Spans > 0 {
		r.shardReq++
		mean := float64(shard.Us) / float64(shard.Spans)
		if mean > 0 {
			r.imbal += float64(shard.MaxUs) / mean
		}
		outside := float64(t.TotalUs - shard.MaxUs)
		for _, s := range t.Stages {
			if planStages[s.Stage] {
				outside -= float64(s.Us)
			}
		}
		r.mergeUs += outside
	}
}

// runWindow drives the closed loop: client c serves the stream indices
// c, c+clients, c+2*clients, ... in order, checks each response, and
// only then sends its next request. Latency covers ServeHTTP alone;
// checking is outside it. With mixed set, a seeded coin flip per
// request decides whether it carries X-CQA-Trace, so traced and
// untraced requests share one window on one instance and a change in
// the host's speed reaches both alike; the two halves come back apart.
// A fixed alternation would line up with a stream's own period (on
// write-read, every other read follows an R upsert) and bias the
// comparison.
func runWindow(in *instance, w *mix, clients int, dur time.Duration, mixed bool) (untraced, traced *windowResult) {
	plain := make([]*windowResult, clients)
	tr := make([]*windowResult, clients)
	issued := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			plain[c], tr[c] = newWindowResult(), newWindowResult()
			rec := newRecorder()
			var st clientState
			coin := rand.New(rand.NewSource(int64(c) + 1))
			for n := 0; time.Now().Before(deadline); n++ {
				i := c + clients*n
				issued[c] = i + 1
				k := w.at(i)
				traced := mixed && coin.Intn(2) == 1
				r := plain[c]
				if traced {
					r = tr[c]
				}
				lat := in.serve(rec, http.MethodPost, k.path, k.bodyAt(i), traced)
				r.attempted++
				r.perKind[k]++
				o := check(k, rec.code, rec.buf.Bytes(), &st)
				if !o.ok {
					r.failed++
					if len(r.reasons) < 5 {
						r.reasons = append(r.reasons, o.reason)
					}
					continue
				}
				ms := float64(lat) / float64(time.Millisecond)
				r.lat[k.op] = append(r.lat[k.op], ms)
				r.kindMs[k] += ms
				r.respBytes += int64(o.respBytes)
				if k.op == opCertain {
					r.certainN++
				}
				if o.degraded {
					r.degraded++
				}
				if o.disagree {
					r.disagree++
				}
				if o.sampled {
					r.sampled++
				}
				if o.ciMiss {
					r.ciMisses++
				}
				if k.op == opMutate {
					r.mutations++
					r.versions[st.lastWrite] = true
				}
				if o.trace != nil {
					r.addTrace(o.trace, in.blocks[k.dbName])
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	untraced, traced = newWindowResult(), newWindowResult()
	for c := range plain {
		untraced.merge(plain[c])
		traced.merge(tr[c])
	}
	for _, r := range []*windowResult{untraced, traced} {
		r.elapsed = elapsed
		for _, n := range issued {
			r.issued = max(r.issued, n)
		}
	}
	return untraced, traced
}

func (r *windowResult) completed() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// meanLatency is the mean ServeHTTP latency in ms over every op.
func (r *windowResult) meanLatency() float64 {
	sum, n := 0.0, 0
	for _, l := range r.lat {
		for _, v := range l {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeap is the heap in use right after forced collections; the
// second one frees what sync.Pool victim caches held through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
