package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"cqa/internal/attack"
	"cqa/internal/catalog"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// op is the endpoint family of one request; latency is reported per op.
type op int

const (
	opCertain op = iota
	opAnswers
	opCount
	opClassify
	opMutate
	numOps
)

var opNames = [numOps]string{"certain", "answers", "count", "classify", "mutate"}

func (o op) String() string { return opNames[o] }

var opPaths = [numOps]string{"/v1/certain", "/v1/answers", "/v1/count", "/v1/classify", ""}

// chainQuery is the query of the chain workloads: the textbook FO case
// whose certainty check is the Lemma 9/10 sweep over both relations.
const chainQuery = "R(x | y), S(y | z)"

// Sizes of the generated instances. A falsified chain of n R-blocks has
// 2n blocks (n R-blocks of two facts, n S-blocks of one).
const (
	sweepRBlocks  = 50000 // falsified chain of ~100k blocks
	answersChainN = 43000 // certain chain of ~100k blocks, 43k answers
	countRBlocks  = 5000  // falsified chain of 10k blocks, counted exactly
	hubBlocks     = 1000  // hub gadget: one component, sampled count
	freshEvery    = 5     // catalog-mix: every fifth request is a fresh query
	freshPool     = 1000  // distinct fresh query templates per seed
	oracleRepairs = 4096  // largest catalog-mix instance the oracle enumerates
	// instancesPerQuery is how many stored snapshots each catalog-mix
	// query gets: the latency tail is then a mix over 4 random instances
	// per query rather than 1, so it depends less on one seed's draws.
	instancesPerQuery = 4
	// coNPMaxSteps is the step budget catalog-mix puts on coNP-class
	// certain requests: low enough that the exact search runs out on
	// every instance, so the degrade-to-sampling path runs. Count
	// requests keep the default budget: below it the embedding
	// enumeration fails before the counter could sample.
	coNPMaxSteps = 1
)

// upload is one stored snapshot: PUT /v1/db/{name} with the facts text.
type upload struct {
	name, facts string
}

// kind is one distinct request of a workload. A request stream is a
// sequence of kinds; most kinds repeat with an identical body, while
// write and fresh-query kinds render a distinct body per stream index.
type kind struct {
	op   op
	path string
	body []byte
	// render, when set, produces the body of the stream's i-th request.
	render func(i int) []byte
	// fresh marks a never-seen query template of catalog-mix.
	fresh bool
	want  *expect
	// Fields the per-layer direct calls need to replay the request
	// against the layers themselves.
	query    string
	dbName   string
	facts    string
	free     []string
	maxSteps int64
	// verified holds a response body already checked against the
	// oracle: a later byte-identical body passes without a re-decode,
	// which keeps checking MB-size answer sets cheap.
	verified atomic.Pointer[[]byte]
}

func (k *kind) bodyAt(i int) []byte {
	if k.render != nil {
		return k.render(i)
	}
	return k.body
}

// mix is everything one benchmark run needs: the server
// configuration, the uploads, and a deterministic request stream.
type mix struct {
	name   string
	shards int
	wal    bool
	// uploads are PUT before any request; warm lists the kinds issued
	// once during setup so every snapshot index, columnar view, shard
	// pool and repeating plan is built before timing starts.
	uploads []upload
	kinds   []*kind
	warm    []*kind
	// at maps a stream index to the kind issued there.
	at func(i int) *kind
}

var workloadNames = []string{"fo-sweep", "catalog-mix", "write-read", "sharded-sweep"}

// buildWorkload generates the named workload from the seed. Generation
// is pure: the same name and seed give byte-identical uploads and
// request bodies.
func buildWorkload(name string, seed int64, clients int) (*mix, error) {
	switch name {
	case "fo-sweep":
		return sweepWorkload(name, seed, 0), nil
	case "sharded-sweep":
		return sweepWorkload(name, seed, clients), nil
	case "catalog-mix":
		return catalogWorkload(seed)
	case "write-read":
		return writeReadWorkload(seed, clients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps and strings are marshalled here
	}
	return b
}

type reqBody struct {
	Query    string   `json:"query"`
	DB       string   `json:"db,omitempty"`
	Facts    string   `json:"facts,omitempty"`
	Free     []string `json:"free,omitempty"`
	MaxSteps int64    `json:"maxSteps,omitempty"`
}

func newKind(o op, b reqBody, want *expect) *kind {
	return &kind{op: o, path: opPaths[o], body: mustJSON(b), want: want,
		query: b.Query, dbName: b.DB, facts: b.Facts, free: b.Free, maxSteps: b.MaxSteps}
}

// chainNames draws the constants of n chain blocks: unique, seeded
// names, so a different seed gives different strings and hashes.
func chainNames(rng *rand.Rand, n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d_%04x", prefix, i, rng.Intn(1<<16))
	}
	return out
}

// renderBlocks writes blocks (each a list of facts) in a seeded order.
func renderBlocks(rng *rand.Rand, blocks [][]string) upload {
	var b strings.Builder
	for _, i := range rng.Perm(len(blocks)) {
		for _, f := range blocks[i] {
			b.WriteString(f)
			b.WriteByte('\n')
		}
	}
	return upload{facts: b.String()}
}

// falsifiedChain is a chain instance on which the chain query is not
// certain: every R-block holds a fact whose y-value has no S-fact, so
// the sweep visits every block without an early exit.
func falsifiedChain(rng *rand.Rand, name string, rBlocks int) (upload, []string) {
	xs := chainNames(rng, rBlocks, "x")
	var blocks [][]string
	for _, x := range xs {
		y := "y" + x[1:]
		blocks = append(blocks,
			[]string{fmt.Sprintf("R(%s | %s)", x, y), fmt.Sprintf("R(%s | b%s)", x, y)},
			[]string{fmt.Sprintf("S(%s | z)", y)})
	}
	u := renderBlocks(rng, blocks)
	u.name = name
	return u, xs
}

// certainChain is a chain instance on which every x is a certain
// answer: each x has a joining y, and every third also a second one.
func certainChain(rng *rand.Rand, name string, n int) (upload, []string) {
	xs := chainNames(rng, n, "x")
	var blocks [][]string
	for i, x := range xs {
		y := "y" + x[1:]
		r := []string{fmt.Sprintf("R(%s | %s)", x, y)}
		blocks = append(blocks, []string{fmt.Sprintf("S(%s | z)", y)})
		if i%3 == 0 {
			r = append(r, fmt.Sprintf("R(%s | %sb)", x, y))
			blocks = append(blocks, []string{fmt.Sprintf("S(%sb | z)", y)})
		}
		blocks = append(blocks, r)
	}
	u := renderBlocks(rng, blocks)
	u.name = name
	return u, xs
}

// hubGadget is the oversized-component counting instance: b-1 R-blocks
// that each choose between a shared hub y-value and a dead end, plus a
// two-fact S-block on the hub. All of it is one constraint component of
// 2^b assignments, so the count is sampled; a repair falsifies the query
// iff every R-block picks its dead end, so the fraction is 1-2^-(b-1).
func hubGadget(rng *rand.Rand, name string, b int) upload {
	xs := chainNames(rng, b-1, "x")
	var blocks [][]string
	for _, x := range xs {
		blocks = append(blocks, []string{fmt.Sprintf("R(%s | hub)", x), fmt.Sprintf("R(%s | dead%s)", x, x[1:])})
	}
	blocks = append(blocks, []string{"S(hub | z0)", "S(hub | z1)"})
	u := renderBlocks(rng, blocks)
	u.name = name
	return u
}

func pow2(n int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(n)) }

// cycleSchedule repeats each kind weight times, shuffles the result with
// the seed, and returns the stream that cycles through it.
func cycleSchedule(rng *rand.Rand, kinds []*kind, weights []int) func(int) *kind {
	var sched []*kind
	for rep := 0; rep < 64; rep++ {
		for i, k := range kinds {
			for w := 0; w < weights[i]; w++ {
				sched = append(sched, k)
			}
		}
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	return func(i int) *kind { return sched[i%len(sched)] }
}

// sweepWorkload is fo-sweep (shards 0: the monolithic config) and
// sharded-sweep (shards > 0): identical inputs and request stream.
func sweepWorkload(name string, seed int64, shards int) *mix {
	rng := rand.New(rand.NewSource(seed))
	fal, _ := falsifiedChain(rng, "sweep", sweepRBlocks)
	chain, xs := certainChain(rng, "chain", answersChainN)
	cnt, _ := falsifiedChain(rng, "countx", countRBlocks)
	hub := hubGadget(rng, "hub", hubBlocks)

	answers := append([]string(nil), xs...)
	sort.Strings(answers)
	// The count instance has 2^n repairs (n two-fact R-blocks, singleton
	// S-blocks); only the repair picking every dead end falsifies.
	cntTotal := pow2(countRBlocks)
	cntSat := new(big.Int).Sub(cntTotal, big.NewInt(1))
	kinds := []*kind{
		newKind(opCertain, reqBody{Query: chainQuery, DB: fal.name}, &expect{certain: false}),
		newKind(opAnswers, reqBody{Query: chainQuery, DB: chain.name, Free: []string{"x"}}, &expect{answers: answers}),
		newKind(opCount, reqBody{Query: chainQuery, DB: cnt.name}, &expect{total: cntTotal.String(), satisfying: cntSat.String()}),
		newKind(opCount, reqBody{Query: chainQuery, DB: hub.name}, &expect{
			total: pow2(hubBlocks).String(), fraction: 1 - math.Ldexp(1, -(hubBlocks-1))}),
	}
	return &mix{
		name:    name,
		shards:  shards,
		uploads: []upload{fal, chain, cnt, hub},
		kinds:   kinds,
		warm:    kinds,
		at:      cycleSchedule(rng, kinds, []int{2, 1, 1, 1}),
	}
}

// writeReadWorkload is one falsified chain under a stream in which
// every client alternates a delta write with a certain read. A client
// takes the stream indices c, c+clients, c+2*clients, ...; its n-th
// request is a write for even n and a read for odd n. Writes keep the
// chain falsified (an upserted R-block always keeps a dead-end fact) or
// touch the scratch relation W, which the query never reads.
func writeReadWorkload(seed int64, clients int) *mix {
	rng := rand.New(rand.NewSource(seed))
	fal, xs := falsifiedChain(rng, "chain", sweepRBlocks)
	read := newKind(opCertain, reqBody{Query: chainQuery, DB: fal.name}, &expect{certain: false, freshRead: true})
	// Per-write choices are drawn from a seeded table, indexed by the
	// write's number, so a body depends only on the seed and its index.
	picks := make([]int, 1<<12)
	tags := make([]int, len(picks))
	for i := range picks {
		picks[i] = rng.Intn(len(xs))
		tags[i] = rng.Intn(1 << 16)
	}
	// writeOf splits a write's stream index into the client's own write
	// count m, which picks the write type, and a number u unique over
	// all clients' writes.
	writeOf := func(i int) (m, u int) {
		c, n := i%clients, i/clients
		m = n / 2
		return m, m*clients + c
	}
	// A client's m-th write is an R upsert for even m, else a W insert
	// (m%4 == 1) or the delete of the W fact the same client inserted
	// two writes before (m%4 == 3). Each type is its own kind, so the
	// per-layer calls time them apart.
	newWrite := func(render func(u int) any) *kind {
		return &kind{op: opMutate, path: "/v1/db/" + fal.name + "/facts", want: &expect{},
			dbName: fal.name, render: func(i int) []byte {
				_, u := writeOf(i)
				return mustJSON(render(u))
			}}
	}
	tagged := func(u int) string { return fmt.Sprintf("W(w%d | v%04x)", u, tags[u%len(tags)]) }
	upsert := newWrite(func(u int) any {
		x := xs[picks[u%len(picks)]]
		y := "y" + x[1:]
		return map[string]any{"upsert": [][]string{{
			fmt.Sprintf("R(%s | %s)", x, y),
			fmt.Sprintf("R(%s | b%s_%d)", x, y, u),
		}}}
	})
	insert := newWrite(func(u int) any { return map[string]any{"insert": []string{tagged(u)}} })
	// Deleting a fact that is absent is a no-op, so a delete replayed
	// outside the stream stays a valid write.
	del := newWrite(func(u int) any { return map[string]any{"delete": []string{tagged(u - 2*clients)}} })
	return &mix{
		name:    "write-read",
		wal:     true,
		uploads: []upload{fal},
		kinds:   []*kind{upsert, insert, del, read},
		warm:    []*kind{read},
		at: func(i int) *kind {
			if (i/clients)%2 == 1 {
				return read
			}
			switch m, _ := writeOf(i); m % 4 {
			case 1:
				return insert
			case 3:
				return del
			}
			return upsert
		},
	}
}

// cmQuery is one catalog-mix query with its small stored instance.
type cmQuery struct {
	text  string
	q     query.Query
	class attack.Class
}

// catalogQueries lists the 28 catalog queries, the path/cycle/star
// families, q0 and the coNP non-key join, each with its published or
// by-construction class.
func catalogQueries() []cmQuery {
	var out []cmQuery
	for _, e := range append(catalog.Entries(), catalog.FamilyEntries()...) {
		out = append(out, cmQuery{text: e.Query, q: e.MustQuery(), class: e.Class})
	}
	q0, nk := workload.Q0(), workload.NonKeyJoinQuery()
	out = append(out,
		cmQuery{text: q0.String(), q: q0, class: attack.PTime},
		cmQuery{text: nk.String(), q: nk, class: attack.CoNPComplete})
	return out
}

func renderFacts(d *db.DB) string {
	var b strings.Builder
	for _, f := range d.Facts() {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// smallInstance draws instances until one is small enough for the
// oracle to enumerate; the redraws come from the same seeded source, so
// the result is still a function of the seed.
func smallInstance(draw func() *db.DB) *db.DB {
	for {
		if d := draw(); d.NumRepairs() <= oracleRepairs {
			return d
		}
	}
}

// oracleAnswers computes the certain answers on free variable v by
// brute force: every binding of v drawn from an embedding, kept when
// the bound query holds in every repair.
func oracleAnswers(q query.Query, d *db.DB, v query.Var) ([]string, error) {
	cands := map[query.Const]bool{}
	match.NewIndex(d).Match(q, query.Valuation{}, func(val query.Valuation) bool {
		cands[val[v]] = true
		return true
	})
	var out []string
	for c := range cands {
		ok, err := naive.Certain(q.Substitute(query.Valuation{v: c}), d)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, string(c))
		}
	}
	sort.Strings(out)
	return out, nil
}

// freshTag marks the relation names of a fresh-query template; the i-th
// request replaces it with a tag unique to i, so its normalized query
// was never seen before and misses the plan cache.
const freshTag = "FRESH"

// freshTemplates draws the never-seen query templates: random
// self-join-free queries with small inline instances and their oracle
// verdicts.
func freshTemplates(rng *rand.Rand) ([]*kind, error) {
	var out []*kind
	for len(out) < freshPool {
		qp := workload.DefaultQueryParams()
		qp.Atoms = 2 + rng.Intn(2)
		q := workload.RandomQuery(rng, qp)
		atoms := make([]query.Atom, len(q.Atoms))
		for i, a := range q.Atoms {
			rel := a.Rel
			rel.Name = freshTag + rel.Name
			atoms[i] = query.Atom{Rel: rel, Args: a.Args}
		}
		q = query.NewQuery(atoms...)
		if q.Validate() != nil || !q.SelfJoinFree() {
			continue
		}
		d := smallInstance(func() *db.DB { return workload.RandomDB(rng, q, workload.DefaultDBParams()) })
		want, err := naive.Certain(q, d)
		if err != nil {
			return nil, err
		}
		k := newKind(opCertain, reqBody{Query: q.String(), Facts: renderFacts(d)}, &expect{certain: want})
		body := k.body
		k.fresh = true
		k.render = func(i int) []byte {
			return bytes.ReplaceAll(body, []byte(freshTag), []byte(fmt.Sprintf("F%d", i)))
		}
		out = append(out, k)
	}
	return out, nil
}

// catalogWorkload is catalog-mix: every catalog query on its own small
// stored snapshots under classify/certain/answers/count, plus a fixed
// share of never-seen inline queries.
func catalogWorkload(seed int64) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &mix{name: "catalog-mix"}
	params := workload.DBParams{SeedMatches: 4, Domain: 3, ExtraPerBlock: 0.8, Noise: 3}
	var weights []int
	for i, cq := range catalogQueries() {
		draw := func() *db.DB { return workload.RandomDB(rng, cq.q, params) }
		switch {
		case cq.q.Equal(workload.Q0()):
			draw = func() *db.DB { return workload.Q0Instance(rng, 6, 2) }
		case cq.q.Equal(workload.NonKeyJoinQuery()):
			draw = func() *db.DB { return workload.HardInstance(rng, 3, 6, 2) }
		}
		var steps int64
		if cq.class == attack.CoNPComplete {
			steps = coNPMaxSteps
		}
		// One classify kind per query, with one share per instance, so
		// every op gets the same share of the repeating requests.
		w.kinds = append(w.kinds, newKind(opClassify, reqBody{Query: cq.text}, &expect{class: cq.class.String()}))
		weights = append(weights, instancesPerQuery)
		for j := 0; j < instancesPerQuery; j++ {
			d := smallInstance(draw)
			name := fmt.Sprintf("cm%02d_%d", i, j)
			w.uploads = append(w.uploads, upload{name: name, facts: renderFacts(d)})
			certain, err := naive.Certain(cq.q, d)
			if err != nil {
				return nil, err
			}
			sat, total, err := naive.CountSatisfyingRepairs(cq.q, d)
			if err != nil {
				return nil, err
			}
			v := cq.q.Vars().Sorted()[0]
			answers, err := oracleAnswers(cq.q, d, v)
			if err != nil {
				return nil, err
			}
			w.kinds = append(w.kinds,
				newKind(opCertain, reqBody{Query: cq.text, DB: name, MaxSteps: steps}, &expect{certain: certain}),
				newKind(opAnswers, reqBody{Query: cq.text, DB: name, Free: []string{string(v)}}, &expect{answers: answers}),
				newKind(opCount, reqBody{Query: cq.text, DB: name}, &expect{
					total: fmt.Sprint(total), satisfying: fmt.Sprint(sat), fraction: float64(sat) / float64(total)}),
			)
			weights = append(weights, 1, 1, 1)
		}
	}
	fresh, err := freshTemplates(rng)
	if err != nil {
		return nil, err
	}
	w.warm = w.kinds
	sched := cycleSchedule(rng, w.kinds, weights)
	w.kinds = append(w.kinds, fresh...)
	w.at = func(i int) *kind {
		if i%freshEvery == freshEvery-1 {
			return fresh[(i/freshEvery)%len(fresh)]
		}
		return sched(i)
	}
	return w, nil
}
