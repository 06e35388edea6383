package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/plancache"
	"cqa/internal/query"
	"cqa/internal/server"
	"cqa/internal/store"
	"cqa/internal/trace"
)

// The traced run attributes time to layers from two sources. The
// program's own stage spans and counters come back in each traced
// response. The benchmark adds its own spans by calling each layer's
// public entry point directly on the same warm state, one request kind
// at a time: server.self is the ServeHTTP span minus those child spans.
// Nothing inside the program is instrumented for this.

const (
	// maxFreshKinds is how many fresh templates, the first ones in
	// stream order, stand for all of them in the direct calls. Every
	// repeating kind is replayed: a few slow kinds dominate the mean,
	// and a sample would miss some of them.
	maxFreshKinds = 24
	// directBudget is the time spent repeating one direct call; each
	// call runs at least minReps times.
	directBudget = 5 * time.Millisecond
	minReps      = 7
	maxReps      = 200
)

// spans are one kind's direct-call medians in µs.
type spans struct {
	share                               float64
	plan, planMiss, store, parse, apply float64
	engine                              float64
	// self is the ServeHTTP span minus the child spans it contains.
	self float64
	// stages is the engine's critical-path time per program stage, from
	// the same direct calls run with a tracer.
	stages       map[string]float64
	allocs       float64 // per ServeHTTP call
	answerAllocs float64 // engine allocations per answer
	answers      bool
}

// probe is one direct call: it prepares its inputs untimed and returns
// the duration of the call alone.
type probe func() (time.Duration, error)

// interleave runs the probes round-robin, at least minReps rounds and
// more while the budget lasts, and returns each probe's times in µs,
// one per round. Alternating them spreads a slow phase of the host over
// every probe, so the differences between them stay meaningful.
func interleave(probes []probe) ([][]float64, error) {
	xs := make([][]float64, len(probes))
	budget := directBudget * time.Duration(len(probes))
	start := time.Now()
	for rounds := 0; rounds < minReps || (rounds < maxReps && time.Since(start) < budget); rounds++ {
		for i, p := range probes {
			d, err := p()
			if err != nil {
				return nil, err
			}
			xs[i] = append(xs[i], float64(d)/float64(time.Microsecond))
		}
	}
	return xs, nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// directSeq numbers the bodies of rendered kinds replayed directly, far
// past any stream index, so a fresh query stays unseen and a write
// stays a new write.
var directSeq = 1 << 40

func nextBody(k *kind) []byte {
	directSeq++
	return k.bodyAt(directSeq)
}

// evalOptions mirrors the server's per-request options: its default
// budgets, a request's tighter step budget, degradation enabled.
func evalOptions(k *kind) core.Options {
	opts := core.Options{MaxSteps: server.DefaultMaxSteps, MemoCap: server.DefaultMemoCap, Approximate: true}
	if k.maxSteps > 0 && k.maxSteps < opts.MaxSteps {
		opts.MaxSteps = k.maxSteps
	}
	return opts
}

// measureKind replays one kind on the warm instance: the whole
// ServeHTTP call and, interleaved with it, each layer call the handler
// makes for that request.
func measureKind(in *instance, w *mix, k *kind) (*spans, error) {
	s := &spans{stages: map[string]float64{}}
	rec := newRecorder()
	var probes []probe
	var dsts []*float64
	add := func(dst *float64, p probe) {
		probes = append(probes, p)
		dsts = append(dsts, dst)
	}
	// The ServeHTTP span is probe 0.
	add(new(float64), func() (time.Duration, error) {
		d := in.serve(rec, http.MethodPost, k.path, nextBody(k), false)
		if rec.code != http.StatusOK {
			return d, fmt.Errorf("direct %s: status %d: %.200s", k.op, rec.code, rec.buf.Bytes())
		}
		return d, nil
	})
	stageCalls := 0
	var err error
	if k.op == opMutate {
		addMutateProbes(in, k, s, add)
	} else if err = addEvalProbes(in, w, k, s, &stageCalls, add); err != nil {
		return nil, err
	}
	xs, err := interleave(probes)
	if err != nil {
		return nil, err
	}
	for i, dst := range dsts {
		*dst = median(xs[i])
	}
	// The server's own time is the ServeHTTP span minus its child spans,
	// round by round, so a slow phase of the host does not land on one
	// side of the difference.
	child := map[*float64]bool{&s.plan: true, &s.store: true, &s.parse: true, &s.apply: true, &s.engine: true}
	rounds := len(xs[0])
	self := make([]float64, rounds)
	for r := range self {
		self[r] = xs[0][r]
		for i, dst := range dsts {
			if child[dst] {
				self[r] -= xs[i][r]
			}
		}
	}
	s.self = median(self)
	for name := range s.stages {
		s.stages[name] /= float64(stageCalls)
	}
	// Allocations per ServeHTTP, with the requests built beforehand.
	reqs := make([]*http.Request, rounds)
	for i := range reqs {
		reqs[i] = newRequest(http.MethodPost, k.path, nextBody(k), false)
	}
	before := mallocs()
	for _, r := range reqs {
		rec.reset()
		in.h.ServeHTTP(rec, r)
	}
	s.allocs = float64(mallocs()-before) / float64(rounds)
	return s, nil
}

// addEvalProbes adds the layer calls of a classify, certain, answers or
// count request: the plan cache (hit, and a miss on a fresh cache), the
// snapshot lookup or the inline-facts parse, and the engine, untraced
// and traced for its stage split.
func addEvalProbes(in *instance, w *mix, k *kind, s *spans, stageCalls *int, add func(*float64, probe)) error {
	text := func() string { return k.query }
	if k.render != nil {
		// A fresh query: rename it per call, as the stream does.
		text = func() string {
			var b reqBody
			json.Unmarshal(nextBody(k), &b) //nolint:errcheck // generated by this program
			return b.Query
		}
	}
	cache := in.srv.Cache()
	add(&s.plan, func() (time.Duration, error) {
		t := text()
		start := time.Now()
		_, _, err := cache.GetOrCompile(t)
		return time.Since(start), err
	})
	add(&s.planMiss, func() (time.Duration, error) {
		t, c := text(), plancache.New(0)
		start := time.Now()
		_, _, err := c.GetOrCompile(t)
		return time.Since(start), err
	})
	if k.op == opClassify {
		return nil
	}
	// The engine runs on the kind's own text; a renamed fresh query
	// costs the same.
	plan, _, err := cache.GetOrCompile(k.query)
	if err != nil {
		return err
	}
	opts := evalOptions(k)
	var ix *match.Index
	if k.dbName != "" {
		st := in.srv.Store()
		snap, ok := st.Get(k.dbName)
		if !ok {
			return fmt.Errorf("direct: no snapshot %s", k.dbName)
		}
		ix = snap.Index()
		if k.op != opCount {
			// The handler shards certain and answers, never count.
			opts.Shards = w.shards
			opts.ShardPool = snap.ShardPool(w.shards, 0)
		}
		add(&s.store, func() (time.Duration, error) {
			start := time.Now()
			snap, _ := st.Get(k.dbName)
			snap.Index()
			return time.Since(start), nil
		})
	} else {
		// Inline facts: parse, mode-c check and index, as the handler does.
		d, err := db.ParseFacts(plan.Query.Schema(), k.facts)
		if err != nil {
			return err
		}
		ix = match.NewIndex(d)
		add(&s.parse, func() (time.Duration, error) {
			start := time.Now()
			d, err := db.ParseFacts(plan.Query.Schema(), k.facts)
			if err == nil {
				d.ConsistentFor()
				match.NewIndex(d)
			}
			return time.Since(start), err
		})
	}
	free := make([]query.Var, len(k.free))
	for i, v := range k.free {
		free[i] = query.Var(v)
	}
	engine := func(opts core.Options) (int, error) {
		ctx, cancel := context.WithTimeout(context.Background(), server.DefaultEvalTimeout)
		defer cancel()
		switch k.op {
		case opCertain:
			_, err := plan.CertainIndexedCtx(ctx, ix, opts)
			return 0, err
		case opAnswers:
			vals, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, opts)
			return len(vals), err
		default:
			_, err := plan.CountIndexedCtx(ctx, ix, opts)
			return 0, err
		}
	}
	add(&s.engine, func() (time.Duration, error) {
		start := time.Now()
		_, err := engine(opts)
		return time.Since(start), err
	})
	add(new(float64), func() (time.Duration, error) {
		traced := opts
		traced.Tracer = trace.New()
		start := time.Now()
		_, err := engine(traced)
		d := time.Since(start)
		var bd []stageStats
		for _, st := range traced.Tracer.Breakdown() {
			bd = append(bd, stageStats{Stage: st.Stage, Spans: st.Spans, Us: st.Micros, MaxUs: st.MaxUs})
		}
		for name, us := range critPath(bd) {
			s.stages[name] += us
		}
		*stageCalls++
		return d, err
	})
	if k.op == opAnswers {
		before := mallocs()
		n, err := engine(opts)
		if err != nil {
			return err
		}
		if n > 0 {
			s.answers = true
			s.answerAllocs = float64(mallocs()-before) / float64(n)
		}
	}
	return nil
}

// addMutateProbes adds the write path's layer calls: parsing the
// delta's facts, and the store's ApplyDelta (group commit, journal
// append and fsync, Apply, columnar derive, publish).
func addMutateProbes(in *instance, k *kind, s *spans, add func(*float64, probe)) {
	type mutateReq struct {
		Insert []string   `json:"insert"`
		Delete []string   `json:"delete"`
		Upsert [][]string `json:"upsert"`
	}
	decode := func() (mutateReq, error) {
		var m mutateReq
		err := json.Unmarshal(nextBody(k), &m)
		return m, err
	}
	parse := func(m mutateReq) (db.Delta, error) {
		var d db.Delta
		for _, l := range m.Delete {
			f, err := db.ParseFact(nil, l)
			if err != nil {
				return d, err
			}
			d.Delete(f)
		}
		for _, blk := range m.Upsert {
			fs := make([]db.Fact, len(blk))
			for i, l := range blk {
				f, err := db.ParseFact(nil, l)
				if err != nil {
					return d, err
				}
				fs[i] = f
			}
			d.UpsertBlock(fs)
		}
		for _, l := range m.Insert {
			f, err := db.ParseFact(nil, l)
			if err != nil {
				return d, err
			}
			d.Insert(f)
		}
		return d, nil
	}
	add(&s.parse, func() (time.Duration, error) {
		m, err := decode()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = parse(m)
		return time.Since(start), err
	})
	add(&s.apply, func() (time.Duration, error) {
		m, err := decode()
		if err != nil {
			return 0, err
		}
		d, err := parse(m)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, _, err = in.srv.Store().ApplyDelta(k.dbName, d)
		return time.Since(start), err
	})
}

// isolated measures the db and store layers on a private store:
// parsing every upload, each snapshot's first index and columnar build,
// the heap they hold, and the columnar derive of a one-block delta.
type isolated struct {
	parseUsPerFact, indexBuildMs, heapBytesPerFact, deriveUs float64
}

func measureIsolated(w *mix) (isolated, error) {
	var out isolated
	base := liveHeap()
	st := store.New()
	var parse, index time.Duration
	facts := 0
	var largest *db.DB
	for _, u := range w.uploads {
		start := time.Now()
		d, err := db.ParseFacts(nil, u.facts)
		parse += time.Since(start)
		if err != nil {
			return out, err
		}
		facts += d.Len()
		snap := st.Put(u.name, d)
		start = time.Now()
		snap.Index()
		index += time.Since(start)
		if largest == nil || d.Len() > largest.Len() {
			largest = d
		}
	}
	held := float64(liveHeap()) - float64(base)
	runtime.KeepAlive(st)
	out.parseUsPerFact = float64(parse) / float64(time.Microsecond) / float64(facts)
	out.indexBuildMs = float64(index) / float64(time.Millisecond)
	out.heapBytesPerFact = held / float64(facts)

	// A one-block upsert that changes the first fact's last argument.
	f := largest.Facts()[0]
	g := db.Fact{Rel: f.Rel, Args: append([]query.Const(nil), f.Args...)}
	g.Args[len(g.Args)-1] = "perfbench_derive"
	var delta db.Delta
	delta.UpsertBlock([]db.Fact{g})
	largest.Columnar()
	xs, err := interleave([]probe{func() (time.Duration, error) {
		start := time.Now()
		child, _, err := largest.ApplyChanges(delta)
		if err == nil {
			child.Columnar()
		}
		return time.Since(start), err
	}})
	if err != nil {
		return out, err
	}
	out.deriveUs = median(xs[0])
	return out, nil
}

// stageMs is the mean per-request time of a program stage, in ms, over
// the responses that carried it.
func (r *windowResult) stageMs(name string) (float64, bool) {
	a := r.stages[name]
	if a == nil || a.reqs == 0 {
		return 0, false
	}
	return float64(a.us) / float64(a.reqs) / 1000, true
}

func (r *windowResult) counterPerReq(stage, counter string) (float64, bool) {
	a := r.stages[stage]
	if a == nil || a.reqs == 0 {
		return 0, false
	}
	return float64(a.counters[counter]) / float64(a.reqs), true
}

// layerRun is everything the traced run measured.
type layerRun struct {
	untraced, traced *windowResult
	kinds            []*kind
	spans            map[*kind]*spans
	iso              isolated
	cacheHits        uint64
	cacheMisses      uint64
	indexHits        uint64
	indexMisses      uint64
	walBytes         int64
	walRecords       int64
	wal              bool
}

// weighted is the share-weighted mean of f over the measured kinds for
// which keep holds.
func (lr *layerRun) weighted(f func(*spans) float64, keep func(*kind, *spans) bool) (float64, bool) {
	sum, w := 0.0, 0.0
	for _, k := range lr.kinds {
		s := lr.spans[k]
		if keep != nil && !keep(k, s) {
			continue
		}
		sum += s.share * f(s)
		w += s.share
	}
	if w == 0 {
		return 0, false
	}
	return sum / w, true
}

// layerMetrics derives the per-layer metrics; a layer the workload
// does not exercise is absent.
func (lr *layerRun) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	// set(name)(v, ok) records v when ok.
	set := func(name string) func(float64, bool) {
		return func(v float64, ok bool) {
			if ok {
				m[name] = v
			}
		}
	}
	t := lr.traced
	set("server.self_us")(lr.weighted(func(s *spans) float64 { return s.self }, nil))
	if n := lr.untraced.completed(); n > 0 {
		m["server.resp_kb"] = float64(lr.untraced.respBytes) / float64(n) / 1024
	}
	set("server.allocs_per_req")(lr.weighted(func(s *spans) float64 { return s.allocs }, nil))
	if n := lr.cacheHits + lr.cacheMisses; n > 0 {
		m["plancache.hit_ratio"] = float64(lr.cacheHits) / float64(n)
	}
	notMutate := func(k *kind, _ *spans) bool { return k.op != opMutate }
	set("plancache.hit_us")(lr.weighted(func(s *spans) float64 { return s.plan }, func(k *kind, s *spans) bool {
		return notMutate(k, s) && !k.fresh
	}))
	set("plancache.miss_us")(lr.weighted(func(s *spans) float64 { return s.planMiss }, notMutate))
	if n := lr.indexHits + lr.indexMisses; n > 0 {
		m["store.index_hit_ratio"] = float64(lr.indexHits) / float64(n)
	}
	m["store.index_build_ms"] = lr.iso.indexBuildMs
	m["db.parse_us_per_fact"] = lr.iso.parseUsPerFact
	m["db.derive_us"] = lr.iso.deriveUs
	m["db.heap_bytes_per_fact"] = lr.iso.heapBytesPerFact
	engine := func(k *kind, _ *spans) bool { return k.op != opMutate && k.op != opClassify }
	if v, ok := lr.weighted(func(s *spans) float64 { return s.engine }, engine); ok {
		m["core.engine_ms"] = v / 1000
	}
	set("core.allocs_per_answer")(lr.weighted(func(s *spans) float64 { return s.answerAllocs },
		func(_ *kind, s *spans) bool { return s.answers }))
	if n := lr.untraced.certainN + t.certainN; n > 0 {
		m["core.degraded_share"] = float64(lr.untraced.degraded+t.degraded) / float64(n)
		m["core.degraded_disagree"] = float64(lr.untraced.disagree + t.disagree)
	}
	set("rewrite.eliminator_ms")(t.stageMs("eliminator"))
	if t.stepsN > 0 {
		m["rewrite.steps_per_block"] = t.stepsPB / float64(t.stepsN)
	}
	if a := t.stages["eliminator"]; a != nil {
		if n := a.counters["memo_hits"] + a.counters["memo_misses"]; n > 0 {
			m["rewrite.memo_hit_ratio"] = float64(a.counters["memo_hits"]) / float64(n)
		}
	}
	set("counting.ms")(t.stageMs("count"))
	set("counting.components")(t.counterPerReq("count", "components"))
	set("counting.samples")(t.counterPerReq("count", "samples"))
	if t.sampled+lr.untraced.sampled > 0 {
		m["counting.ci_misses"] = float64(t.ciMisses + lr.untraced.ciMisses)
	}
	set("ptime.ms")(t.stageMs("ptime"))
	set("ptime.dissolutions")(t.counterPerReq("ptime", "dissolutions"))
	set("conp.ms")(t.stageMs("conp"))
	set("conp.nodes")(t.counterPerReq("conp", "nodes"))
	if t.shardReq > 0 {
		a := t.stages["shard"]
		m["shard.spans_per_req"] = float64(a.spans) / float64(a.reqs)
		m["shard.max_over_mean"] = t.imbal / float64(t.shardReq)
		m["shard.merge_ms"] = t.mergeUs / float64(t.shardReq) / 1000
	}
	if lr.wal {
		set("store.apply_us")(lr.weighted(func(s *spans) float64 { return s.apply },
			func(k *kind, _ *spans) bool { return k.op == opMutate }))
		versions := map[uint64]bool{}
		for _, r := range []*windowResult{lr.untraced, t} {
			for v := range r.versions {
				versions[v] = true
			}
		}
		if len(versions) > 0 {
			m["store.deltas_per_commit"] = float64(lr.untraced.mutations+t.mutations) / float64(len(versions))
		}
		if lr.walRecords > 0 {
			m["wal.bytes_per_record"] = float64(lr.walBytes) / float64(lr.walRecords)
		}
		m["wal.records"] = float64(lr.walRecords)
	}
	if v, ok := lr.overhead(); ok {
		m["trace.overhead_pct"] = v
	}
	return m
}

// overhead compares the traced and untraced halves of the window kind
// by kind: the mean traced latency of each kind against its mean
// untraced latency, both weighted by the kind's request count, so a
// different mix of slow and fast kinds in the halves does not count as
// overhead. The fresh queries are pooled as one kind (nil key): each
// template is issued only a few times.
func (lr *layerRun) overhead() (float64, bool) {
	type sums struct{ tMs, uMs, tN, uN float64 }
	fam := map[*kind]*sums{}
	get := func(k *kind) *sums {
		if k.fresh {
			k = nil
		}
		f := fam[k]
		if f == nil {
			f = &sums{}
			fam[k] = f
		}
		return f
	}
	for k, n := range lr.traced.perKind {
		f := get(k)
		f.tMs += lr.traced.kindMs[k]
		f.tN += float64(n)
	}
	for k, n := range lr.untraced.perKind {
		f := get(k)
		f.uMs += lr.untraced.kindMs[k]
		f.uN += float64(n)
	}
	var traced, untraced float64
	for _, f := range fam {
		if f.tN == 0 || f.uN == 0 {
			continue
		}
		n := f.tN + f.uN
		traced += n * f.tMs / f.tN
		untraced += n * f.uMs / f.uN
	}
	if untraced == 0 {
		return 0, false
	}
	return (traced/untraced - 1) * 100, true
}

// report renders the traced-run table: each layer's self time per
// request, weighted over the mix, from the direct calls on the warm
// state; the unattributed remainder is the traced window's mean latency
// minus all of them, so it holds contention and queueing under load.
// Counts and ratios come from the traced responses.
func (lr *layerRun) report(w *mix, m map[string]float64) string {
	t := lr.traced
	var b strings.Builder
	fmt.Fprintf(&b, "traced run: %s, %d requests traced, %d untraced, interleaved\n", w.name, t.attempted, lr.untraced.attempted)
	fmt.Fprintf(&b, "%-30s %12s %8s  %s\n", "layer", "self us/req", "share", "counts and ratios")
	type row struct {
		name  string
		us    float64
		notes []string
	}
	avg := func(f func(*spans) float64) float64 { v, _ := lr.weighted(f, nil); return v }
	stageSum := func(s *spans) float64 {
		sum := 0.0
		for _, us := range s.stages {
			sum += us
		}
		return sum
	}
	rows := []row{
		{"server (decode/encode)", avg(func(s *spans) float64 { return s.self }), []string{"server.resp_kb", "server.allocs_per_req"}},
		{"plancache (normalize/compile)", avg(func(s *spans) float64 { return s.plan }), []string{"plancache.hit_ratio", "plancache.hit_us", "plancache.miss_us"}},
		{"store (get/index)", avg(func(s *spans) float64 { return s.store }), []string{"store.index_hit_ratio", "store.index_build_ms"}},
		{"db (parse)", avg(func(s *spans) float64 { return s.parse }), []string{"db.parse_us_per_fact", "db.derive_us", "db.heap_bytes_per_fact"}},
	}
	if lr.wal {
		rows = append(rows, row{"store+wal (apply/commit)", avg(func(s *spans) float64 { return s.apply }),
			[]string{"store.apply_us", "store.deltas_per_commit", "wal.bytes_per_record", "wal.records"}})
	}
	rows = append(rows, row{"core (dispatch/materialize)", avg(func(s *spans) float64 { return math.Max(0, s.engine-stageSum(s)) }),
		[]string{"core.engine_ms", "core.allocs_per_answer", "core.degraded_share", "core.degraded_disagree"}})
	for _, st := range []struct {
		stage, label string
		notes        []string
	}{
		{"eliminator", "rewrite (eliminator)", []string{"rewrite.eliminator_ms", "rewrite.steps_per_block", "rewrite.memo_hit_ratio"}},
		{"count", "counting", []string{"counting.ms", "counting.components", "counting.samples", "counting.ci_misses"}},
		{"ptime", "ptime", []string{"ptime.ms", "ptime.dissolutions"}},
		{"conp", "conp", []string{"conp.ms", "conp.nodes"}},
		{"sampling", "sampling (degraded coNP)", nil},
		{"purify", "purify", nil},
		{"match", "match", nil},
		{"shard", "shard (slowest shard)", []string{"shard.spans_per_req", "shard.max_over_mean", "shard.merge_ms"}},
	} {
		if _, ok := t.stages[st.stage]; !ok {
			continue
		}
		stage := st.stage
		rows = append(rows, row{st.label, avg(func(s *spans) float64 { return s.stages[stage] }), st.notes})
	}
	total := t.meanLatency() * 1000
	sum := 0.0
	for _, r := range rows {
		sum += r.us
	}
	rows = append(rows, row{"unattributed", total - sum, nil})
	for _, r := range rows {
		var notes []string
		for _, n := range r.notes {
			if v, ok := m[n]; ok {
				notes = append(notes, fmt.Sprintf("%s=%.4g", n, v))
			}
		}
		fmt.Fprintf(&b, "%-30s %12.1f %7.1f%%  %s\n", r.name, r.us, r.us/total*100, strings.Join(notes, " "))
	}
	fmt.Fprintf(&b, "%-30s %12.1f %7.1f%%\n", "total (traced mean latency)", total, 100.0)
	fmt.Fprintf(&b, "tracing overhead: %+.1f%% (traced vs untraced requests of the same families, interleaved in one window)\n", m["trace.overhead_pct"])
	return b.String()
}
