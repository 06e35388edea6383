package counting

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func TestCountBasic(t *testing.T) {
	q := query.MustParse("R(x | '1')")
	d, err := db.ParseFacts(nil, `
		R(a | 1)
		R(a | 2)
		R(b | 1)
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SatisfyingRepairs(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("total = %v", res.Total)
	}
	// Both repairs contain R(b|1): all satisfy.
	if res.Satisfying.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("satisfying = %v", res.Satisfying)
	}
	if res.Fraction != 1 {
		t.Errorf("fraction = %v", res.Fraction)
	}
	if !res.Exact || res.Confidence != 0 {
		t.Errorf("exact count reported exact=%v confidence=%v", res.Exact, res.Confidence)
	}
}

// TestCountAgainstNaive: exact counts match exhaustive enumeration.
func TestCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		sat, total, err := naive.CountSatisfyingRepairs(q, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SatisfyingRepairs(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.Cmp(big.NewInt(int64(total))) != 0 {
			t.Fatalf("total %v vs naive %d\nq=%s\ndb:\n%s", res.Total, total, q, d)
		}
		if res.Satisfying.Cmp(big.NewInt(int64(sat))) != 0 {
			t.Fatalf("sat %v vs naive %d\nq=%s\ndb:\n%s", res.Satisfying, sat, q, d)
		}
	}
}

// TestCountFactorization: many independent components blow past naive
// enumeration but factorize exactly. 30 disjoint gadgets, each with 2
// blocks of 2 facts (one satisfying combination of 4): per-gadget
// falsifier count is 3, so satisfying = 4^30 - 3^30.
func TestCountFactorization(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | x)")
	d := db.New()
	rRel := q.Atoms[0].Rel
	sRel := q.Atoms[1].Rel
	n := 30
	for i := 0; i < n; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		y := query.Const(fmt.Sprintf("y%d", i))
		yd := query.Const(fmt.Sprintf("ydead%d", i))
		xd := query.Const(fmt.Sprintf("xdead%d", i))
		d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, y}})
		d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, yd}})
		d.Add(db.Fact{Rel: sRel, Args: []query.Const{y, x}})
		d.Add(db.Fact{Rel: sRel, Args: []query.Const{y, xd}})
	}
	res, err := SatisfyingRepairs(q, d)
	if err != nil {
		t.Fatal(err)
	}
	four := big.NewInt(4)
	three := big.NewInt(3)
	wantTotal := new(big.Int).Exp(four, big.NewInt(int64(n)), nil)
	wantFalsify := new(big.Int).Exp(three, big.NewInt(int64(n)), nil)
	wantSat := new(big.Int).Sub(wantTotal, wantFalsify)
	if res.Total.Cmp(wantTotal) != 0 {
		t.Errorf("total = %v, want %v", res.Total, wantTotal)
	}
	if res.Satisfying.Cmp(wantSat) != 0 {
		t.Errorf("satisfying = %v, want %v", res.Satisfying, wantSat)
	}
	if res.Components != n {
		t.Errorf("components = %d, want %d", res.Components, n)
	}
}

func TestCountRefusesHugeComponent(t *testing.T) {
	q := query.MustParse("R(x | y), S(u | y)")
	d := db.New()
	rRel := q.Atoms[0].Rel
	sRel := q.Atoms[1].Rel
	// One giant component: every R joins every S through shared y pool.
	for i := 0; i < 40; i++ {
		for v := 0; v < 3; v++ {
			d.Add(db.Fact{Rel: rRel, Args: []query.Const{
				query.Const(fmt.Sprintf("x%d", i)), query.Const(fmt.Sprintf("y%d", v))}})
			d.Add(db.Fact{Rel: sRel, Args: []query.Const{
				query.Const(fmt.Sprintf("u%d", i)), query.Const(fmt.Sprintf("y%d", v))}})
		}
	}
	if _, err := SatisfyingRepairs(q, d); !errors.Is(err, ErrComponentTooLarge) {
		t.Errorf("a 3^80 component should exceed the exact bound, got %v", err)
	}
	// The same instance under the anytime contract: never a refusal.
	res, err := Count(q, match.NewIndex(d), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Sampled != 1 || res.Satisfying != nil {
		t.Errorf("oversized component: exact=%v sampled=%d sat=%v", res.Exact, res.Sampled, res.Satisfying)
	}
	want := new(big.Int).Exp(big.NewInt(3), big.NewInt(80), nil)
	if res.Total.Cmp(want) != 0 {
		t.Errorf("total = %v, want 3^80", res.Total)
	}
	if res.Fraction < 0 || res.Fraction > 1 || res.Confidence <= 0 {
		t.Errorf("estimate fraction=%v confidence=%v", res.Fraction, res.Confidence)
	}
}

func TestEmptyQueryCount(t *testing.T) {
	d, _ := db.ParseFacts(nil, "R(a | 1)\nR(a | 2)")
	res, err := SatisfyingRepairs(query.MustParse(""), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfying.Cmp(res.Total) != 0 || res.Total.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("empty query: %v/%v", res.Satisfying, res.Total)
	}
}

// TestCountFalsifiedWitness: Falsified is Satisfying < Total on an exact
// count, and on an estimate it is set only when sampling drew a
// falsifying assignment — never on a certain instance.
func TestCountFalsifiedWitness(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	for _, tc := range []struct {
		facts     string
		limit     int64 // 1 forces the component to be sampled
		exact     bool
		falsified bool
	}{
		{"R(a | b)\nR(a | dead)\nS(b | c)", 0, true, true},
		{"R(a | b)\nS(b | c)", 0, true, false},
		{"R(a | b)\nR(a | dead)\nS(b | c)", 1, false, true},
		{"R(a | b)\nR(a | c)\nS(b | 1)\nS(c | 1)", 1, false, false},
	} {
		d, err := db.ParseFacts(q.Schema(), tc.facts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Count(q, match.NewIndex(d), nil, Options{ComponentLimit: tc.limit})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact != tc.exact || res.Falsified != tc.falsified {
			t.Errorf("%q limit %d: exact=%v falsified=%v, want %v/%v",
				tc.facts, tc.limit, res.Exact, res.Falsified, tc.exact, tc.falsified)
		}
		if res.Exact && res.Falsified != (res.Satisfying.Cmp(res.Total) < 0) {
			t.Errorf("%q: falsified=%v but %v of %v repairs satisfy", tc.facts, res.Falsified, res.Satisfying, res.Total)
		}
	}
}
