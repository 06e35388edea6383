package rewrite

import (
	"math/rand"
	"testing"

	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func TestCompileAcyclicOrder(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	order := el.Order()
	if len(order) != 2 || order[0].Rel.Name != "R" || order[1].Rel.Name != "S" {
		t.Errorf("order = %v; want R before S (R attacks S)", order)
	}
}

func TestCompileEliminatorRejectsCyclic(t *testing.T) {
	if _, err := CompileEliminator(workload.Q0()); err == nil {
		t.Fatal("expected error for cyclic attack graph")
	}
}

// certainOf decides the compiled query over ix under the initial
// valuation and fails the test on an evaluation error.
func certainOf(t *testing.T, el *Eliminator, ix *match.Index, initial query.Valuation) bool {
	t.Helper()
	ok, err := el.CertainChecked(ix, initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestEliminatorEmptyQuery(t *testing.T) {
	el, err := CompileAcyclic(query.MustParse(""))
	if err != nil {
		t.Fatal(err)
	}
	if !certainOf(t, el, match.NewIndex(factsDB(t, "R(a | b)")), nil) {
		t.Error("empty query must be certain on every instance")
	}
}

// TestEliminatorDifferentialVsNaive: the compiled elimination order
// agrees with the brute-force oracle on random acyclic instances (fixed
// seed).
func TestEliminatorDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 300; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<14 {
			continue
		}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		got := certainOf(t, el, match.NewIndex(d), nil)
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("eliminator=%v naive=%v\nq = %s\norder = %v\ndb:\n%s",
				got, want, q, el.Order(), d)
		}
	}
}

// TestCertainWithMatchesSubstitute: seeding the eliminator with a
// binding decides exactly the instantiated query (Lemma 6 keeps the
// compiled order valid under instantiation).
func TestCertainWithMatchesSubstitute(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 150; trial++ {
		q := acyclicRandomQuery(rng, t)
		vars := q.Vars().Sorted()
		if len(vars) == 0 {
			continue
		}
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		adom := d.ActiveDomain()
		if len(adom) == 0 {
			continue
		}
		v := vars[rng.Intn(len(vars))]
		binding := query.Valuation{v: adom[rng.Intn(len(adom))]}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		got := certainOf(t, el, match.NewIndex(d), binding)
		want, err := naive.Certain(q.Substitute(binding), d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CertainChecked(binding)=%v naive(substituted)=%v\nq = %s\nbinding = %v\ndb:\n%s",
				got, want, q, binding, d)
		}
		if len(binding) != 1 {
			t.Fatal("CertainChecked modified the caller's valuation")
		}
	}
}

// TestEliminatorSharedAcrossGoroutines: one compiled eliminator is used
// concurrently over a shared index; run with -race.
func TestEliminatorSharedAcrossGoroutines(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		S(b | z)
		S(c | z)
	`)
	ix := match.NewIndex(d)
	type result struct {
		ok  bool
		err error
	}
	done := make(chan result, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok, err := el.CertainChecked(ix, nil, nil)
			done <- result{ok, err}
		}()
	}
	for w := 0; w < 8; w++ {
		if r := <-done; r.err != nil || !r.ok {
			t.Fatalf("shared eliminator = (%v, %v) on a certain instance, want (true, nil)", r.ok, r.err)
		}
	}
}
