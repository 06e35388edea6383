package core

import (
	"context"
	"errors"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
)

// TestSchemaMismatchErrorsOnEveryEngine: a query that gives a stored
// relation another signature returns a *SchemaError from every certain,
// answers and count entry and on every engine, sharded or not — the
// engines never index past the stored columns.
func TestSchemaMismatchErrorsOnEveryEngine(t *testing.T) {
	d, err := db.ParseFacts(nil, "R(a | b)\nS(b | 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("R(x | y, w), S(y | z)")
	isSchemaErr := func(what string, err error) {
		t.Helper()
		var se *SchemaError
		if !errors.As(err, &se) || se.Stored.Arity != 2 || se.Query.Arity != 3 {
			t.Errorf("%s: err = %v, want *SchemaError", what, err)
		}
	}
	ctx := context.Background()
	for _, engine := range []Engine{EngineAuto, EngineFO, EnginePTime, EngineCoNP, EngineNaive} {
		for _, shards := range []int{0, 3} {
			opts := Options{Engine: engine, Shards: shards}
			_, err := Certain(q, d, opts)
			isSchemaErr("Certain "+engine.String(), err)
			_, err = CertainAnswers(q, []query.Var{"x"}, d, opts)
			isSchemaErr("CertainAnswers "+engine.String(), err)
		}
	}
	_, err = CountCtx(ctx, q, d, Options{})
	isSchemaErr("CountCtx", err)
	_, _, err = FalsifyingRepair(q, d)
	isSchemaErr("FalsifyingRepair", err)
	if err := CheckSchema(query.MustParse("R(x | y), S(y | z), T(z | u)"), d); err != nil {
		t.Errorf("matching signatures (and an absent relation) rejected: %v", err)
	}
}

// TestSimplifyNamesStayFresh: the ptime pipeline's pattern elimination and
// key packing name their new relations after the old ones (R_p, R_k,
// R_enc, R_dec). When the query already uses such a name, the new
// relation must get a fresh one: a shared name would store one relation
// under two signatures, which db.Add rejects with a panic, or would merge
// two relations' facts. Every engine, flat and sharded, agrees with naive.
func TestSimplifyNamesStayFresh(t *testing.T) {
	cases := []struct{ q, facts string }{
		{"R(x | x), R_p(x | y, z)", "R(a | a)\nR_p(a | b, c)\n"},
		{"R(x, y | z), R_k(z | w)", "R(a, b | c)\nR(a, b | e)\nR_k(c | d)\nR_k(e | d)\n"},
		{"R(x, y | z), R_enc(x, y | w), R_dec(w | x, y)", "R(a, b | c)\nR_enc(a, b | d)\nR_dec(d | a, b)\nR_dec(d | a, e)\n"},
	}
	for _, c := range cases {
		d, err := db.ParseFacts(nil, c.facts)
		if err != nil {
			t.Fatal(err)
		}
		q := query.MustParse(c.q)
		free := []query.Var{"x"}
		want, err := Certain(q, d, Options{Engine: EngineNaive})
		if err != nil {
			t.Fatalf("%s: naive: %v", c.q, err)
		}
		wantAns, err := CertainAnswers(q, free, d, Options{Engine: EngineNaive})
		if err != nil {
			t.Fatalf("%s: naive answers: %v", c.q, err)
		}
		for _, engine := range []Engine{EngineAuto, EnginePTime, EngineCoNP} {
			for _, shards := range []int{0, 3} {
				opts := Options{Engine: engine, Shards: shards}
				got, err := Certain(q, d, opts)
				if err != nil || got.Certain != want.Certain {
					t.Errorf("%s on %s, shards %d: certain = %v, %v; naive says %v", c.q, engine, shards, got.Certain, err, want.Certain)
				}
				ans, err := CertainAnswers(q, free, d, opts)
				if err != nil || len(ans) != len(wantAns) {
					t.Errorf("%s on %s, shards %d: answers = %v, %v; naive says %v", c.q, engine, shards, ans, err, wantAns)
				}
			}
		}
	}
}
