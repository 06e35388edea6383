package rewrite

import (
	"math"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// Which independent reference decided a differential trial.
const (
	refNone = iota
	refNaive
	refFormula
)

// reference decides CERTAINTY(q) over d without the eliminator: the
// brute-force repair oracle on small instances, and the model check of
// the FO rewriting (quantifiers over the active domain) on instances
// with too many repairs for it. It reports refNone when both would be
// too slow.
func reference(t *testing.T, q query.Query, d *db.DB) (bool, int) {
	t.Helper()
	if d.NumRepairs() <= 1<<14 {
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		return want, refNaive
	}
	// Nesting depth of the rewriting's quantifiers: each variable once,
	// plus one universal per non-key position.
	depth := len(q.Vars())
	for _, a := range q.Atoms {
		depth += a.Rel.Arity - a.Rel.KeyLen
	}
	if math.Pow(float64(len(d.ActiveDomain())), float64(depth)) > 1e12 {
		return false, refNone
	}
	return Eval(RewritingAcyclic(q), d), refFormula
}

// largeDBParams generate instances that often have more repairs than
// the naive oracle enumerates but a small active domain, so the
// rewriting's model check stays cheap.
func largeDBParams() workload.DBParams {
	return workload.DBParams{SeedMatches: 12, Domain: 3, ExtraPerBlock: 4}
}

// TestInternedMatchesReferencesRandom: the interned columnar walk
// decides the same boolean as the row-oriented references — naive on
// small random acyclic instances, the rewriting's model check on large
// ones.
func TestInternedMatchesReferencesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4117))
	used := map[int]int{}
	for trial := 0; trial < 300; trial++ {
		q := acyclicRandomQuery(rng, t)
		params := workload.DefaultDBParams()
		if trial%2 == 1 {
			params = largeDBParams()
		}
		d := workload.RandomDB(rng, q, params)
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		want, ref := reference(t, q, d)
		used[ref]++
		if ref == refNone {
			continue
		}
		got, err := el.CertainChecked(match.NewIndex(d), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("interned=%v reference(%d)=%v\nq = %s\ndb:\n%s", got, ref, want, q, d)
		}
	}
	if used[refNaive] < 150 || used[refFormula] < 15 {
		t.Fatalf("references decided too few trials: naive %d, formula %d, skipped %d",
			used[refNaive], used[refFormula], used[refNone])
	}
}

// TestInternedWithInitialValuation: seeding the interned walk with a
// candidate binding decides the instantiated query, checked against
// the references — including bindings to constants absent from the
// database (a fresh interned symbol occurs in no column, so
// unification fails exactly as string comparison does) and bindings of
// foreign variables (inert).
func TestInternedWithInitialValuation(t *testing.T) {
	rng := rand.New(rand.NewSource(929))
	for trial := 0; trial < 150; trial++ {
		q := acyclicRandomQuery(rng, t)
		vars := q.Vars().Sorted()
		if len(vars) == 0 {
			continue
		}
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		adom := d.ActiveDomain()
		if len(adom) == 0 {
			continue
		}
		v := vars[rng.Intn(len(vars))]
		binding := query.Valuation{v: adom[rng.Intn(len(adom))], "zzUnused": "whatever"}
		if trial%5 == 0 {
			binding[v] = "no-such-constant-anywhere"
		}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		want, ref := reference(t, q.Substitute(binding), d)
		if ref == refNone {
			continue
		}
		got, err := el.CertainChecked(match.NewIndex(d), binding, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("interned=%v reference=%v\nq = %s\nbinding = %v\ndb:\n%s",
				got, want, q, binding, d)
		}
	}
}

// TestInternedAbsentRelation: a query over a relation with no facts is
// never certain (on a nonempty query).
func TestInternedAbsentRelation(t *testing.T) {
	q := query.MustParse("T(x | y)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(factsDB(t, "R(a | b)"))
	got, err := el.CertainChecked(ix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("query over an absent relation reported certain")
	}
}

// TestInternedSignatureMismatchErrors: a query that gives a stored
// relation another signature does not compile against the columnar
// view — every entry point returns an error instead of indexing past
// the stored columns.
func TestInternedSignatureMismatchErrors(t *testing.T) {
	d := factsDB(t, "R(a | b)\nS(b | 1)")
	ix := match.NewIndex(d)
	q := query.MustParse("R(x | y, w), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := el.CertainChecked(ix, nil, nil); err == nil {
		t.Fatal("CertainChecked accepted a mismatched signature")
	}
	if _, err := el.CertainOverSpans(ix, nil, nil); err == nil {
		t.Fatal("CertainOverSpans accepted a mismatched signature")
	}
	if _, err := el.SweepSpans(ix, nil, []query.Var{"x"}, nil); err == nil {
		t.Fatal("SweepSpans accepted a mismatched signature")
	}
	if err := el.SweepSpanBits(ix, nil, make([]bool, 4), nil); err == nil {
		t.Fatal("SweepSpanBits accepted a mismatched signature")
	}
	if _, err := Certain(q, d); err == nil {
		t.Fatal("Certain accepted a mismatched signature")
	}
}

// TestCertainOverSpansPartition: nil spans decide exactly Certain, and
// any partition of the top relation's block indices ORs to the same
// boolean — the contract the scatter-gather coordinator relies on.
func TestCertainOverSpansPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6553))
	for trial := 0; trial < 120; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(el.Order()) == 0 {
			continue
		}
		ix := match.NewIndex(d)
		want := certainOf(t, el, ix, nil)
		all, err := el.CertainOverSpans(ix, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if all != want {
			t.Fatalf("CertainOverSpans(nil)=%v CertainChecked=%v\nq = %s\ndb:\n%s", all, want, q, d)
		}
		topRel := el.Order()[0].Rel.Name
		cr := d.Columnar().Rel(topRel)
		if cr == nil {
			continue
		}
		parts := make([][]int32, 3)
		for b := 0; b < cr.Rel.NumBlocks(); b++ {
			parts[b%3] = append(parts[b%3], int32(b))
		}
		union := false
		for _, part := range parts {
			res, err := el.CertainOverSpans(ix, part, nil)
			if err != nil {
				t.Fatalf("CertainOverSpans(%v): %v", part, err)
			}
			union = union || res
		}
		if union != want {
			t.Fatalf("partition OR=%v Certain=%v\nq = %s\ndb:\n%s", union, want, q, d)
		}
		// Out-of-range spans are refused, never mis-decided; an empty
		// partition decides nothing.
		if _, err := el.CertainOverSpans(ix, []int32{int32(cr.Rel.NumBlocks())}, nil); err == nil {
			t.Fatal("CertainOverSpans accepted an out-of-range block index")
		}
		if res, err := el.CertainOverSpans(ix, []int32{}, nil); res || err != nil {
			t.Fatalf("CertainOverSpans(empty) = (%v, %v), want (false, nil)", res, err)
		}
	}
}

// referenceAnswers is the certain-answer set of q over d for the
// single free variable x, the first key position of relation R: every
// R key whose instantiated query the references decide certain. ok is
// false when some candidate is out of reach of both references.
func referenceAnswers(t *testing.T, q query.Query, d *db.DB) (map[string]bool, bool) {
	t.Helper()
	out := make(map[string]bool)
	for _, f := range d.FactsOf("R") {
		val := query.Valuation{"x": f.Args[0]}
		want, ref := reference(t, q.Substitute(val), d)
		if ref == refNone {
			return nil, false
		}
		if want {
			out[val.Key()] = true
		}
	}
	return out, true
}

// sameAnswers fails the test unless the sweep's bindings are exactly the
// reference set, each once.
func sameAnswers(t *testing.T, got []query.Valuation, want map[string]bool, d *db.DB) {
	t.Helper()
	seen := make(map[string]bool, len(got))
	for _, v := range got {
		k := v.Key()
		if !want[k] || seen[k] {
			t.Fatalf("sweep answer %v: reference %v, seen twice %v\ndb:\n%s", v, want[k], seen[k], d)
		}
		seen[k] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("sweep returned %d answers, references %d\ndb:\n%s", len(seen), len(want), d)
	}
}

// TestSweepSpansMatchesReferences: the interned sweep returns exactly
// the certain answers the naive oracle decides candidate by candidate,
// flat and under a partition of the top relation's blocks, and the bit
// kernel agrees with it.
func TestSweepSpansMatchesReferences(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		R(d | b)
		R(e | q)
		S(b | t)
		S(c | t)
		S(b | u)
	`)
	free := []query.Var{"x"}
	if !el.SweepableFree(free) {
		t.Fatal("fixture query should be sweepable on x")
	}
	want, ok := referenceAnswers(t, q, d)
	if !ok || len(want) != 2 {
		t.Fatalf("reference answers %v (decided %v), want {a, d}", want, ok)
	}
	ix := match.NewIndex(d)
	got, err := el.SweepSpans(ix, nil, free, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got.Rows().Valuations(), want, d)
	// Partitioned sweep unions to the same set; an empty partition
	// sweeps nothing.
	cr := d.Columnar().Rel("R")
	parts := [][]int32{{}, nil, nil}
	for b := 0; b < cr.Rel.NumBlocks(); b++ {
		parts[1+b%2] = append(parts[1+b%2], int32(b))
	}
	var union []query.Valuation
	for _, part := range parts {
		vals, err := el.SweepSpans(ix, part, free, nil)
		if err != nil {
			t.Fatalf("partitioned SweepSpans(%v): %v", part, err)
		}
		union = append(union, vals.Rows().Valuations()...)
	}
	sameAnswers(t, union, want, d)
	if _, err := el.SweepSpans(ix, []int32{-1}, free, nil); err == nil {
		t.Fatal("SweepSpans accepted a negative block index")
	}
	if _, err := el.SweepSpans(ix, nil, []query.Var{"y"}, nil); err == nil {
		t.Fatal("SweepSpans accepted a non-key free variable")
	}

	// The bit kernel agrees block-by-block with the materialized sweep.
	bits := make([]bool, cr.Rel.NumBlocks())
	if err := el.SweepSpanBits(ix, nil, bits, nil); err != nil {
		t.Fatal(err)
	}
	passing := 0
	for _, b := range bits {
		if b {
			passing++
		}
	}
	if passing != got.Len() {
		t.Fatalf("SweepSpanBits reports %d passing blocks, SweepSpans returned %d answers", passing, got.Len())
	}
	// Undersized output buffer is refused.
	if err := el.SweepSpanBits(ix, nil, make([]bool, cr.Rel.NumBlocks()-1), nil); err == nil {
		t.Fatal("SweepSpanBits accepted an undersized output buffer")
	}
}

// TestSweepSpansRandomDifferential: the interned sweep against the
// per-candidate references on random sweepable instances, small (naive)
// and large (the rewriting's model check).
func TestSweepSpansRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	free := []query.Var{"x"}
	decided := 0
	for trial := 0; trial < 80; trial++ {
		params := workload.DefaultDBParams()
		if trial%2 == 1 {
			params = largeDBParams()
		}
		d := workload.RandomDB(rng, q, params)
		want, ok := referenceAnswers(t, q, d)
		if !ok {
			continue
		}
		decided++
		got, err := el.SweepSpans(match.NewIndex(d), nil, free, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, got.Rows().Valuations(), want, d)
	}
	if decided < 60 {
		t.Fatalf("references decided only %d/80 trials", decided)
	}
}

// TestInternedConstantsInQuery: query constants — present and absent
// from the database — decide as the naive oracle does.
func TestInternedConstantsInQuery(t *testing.T) {
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		S(b | v)
		S(c | v)
	`)
	ix := match.NewIndex(d)
	for _, qs := range []string{
		`R('a' | y), S(y | z)`,
		`R('nope' | y), S(y | z)`,
		`R(x | y), S(y | 'v')`,
		`R(x | y), S(y | 'missing')`,
	} {
		q := query.MustParse(qs)
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", qs, err)
		}
		got, err := el.CertainChecked(ix, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: interned=%v naive=%v", qs, got, want)
		}
	}
}
