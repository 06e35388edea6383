package difftest

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/shard"
)

// answersFree picks the free variables of one answers case. Even seeds
// take the key variables of the leading atom of the compiled
// elimination order, which the sweep path reads off the block keys;
// odd seeds (and plans without an elimination order) take the first one
// or two variables in sorted order, which mostly go through candidate
// enumeration.
func answersFree(seed int64, plan *core.Plan) []query.Var {
	if seed%2 == 0 && plan.Elim != nil {
		top := plan.Elim.Order()[0]
		var free []query.Var
		for _, t := range top.Args[:top.Rel.KeyLen] {
			if !t.IsConst() {
				free = append(free, t.Var())
			}
		}
		if len(free) > 0 {
			return free
		}
	}
	vars := plan.Query.Vars().Sorted()
	if n := 1 + int(seed/2)%2; len(vars) > n {
		vars = vars[:n]
	}
	return vars
}

// oracleAnswers is the per-candidate oracle: every projection of an
// embedding onto free whose instantiated query naive.Certain decides
// certain, as a set of binding keys.
func oracleAnswers(q query.Query, d *db.DB, free []query.Var) (map[string]bool, error) {
	want := map[string]bool{}
	seen := map[string]bool{}
	for _, m := range match.AllMatches(q, d) {
		proj := m.Restrict(query.NewVarSet(free...))
		k := proj.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		certain, err := naive.Certain(q.Substitute(proj), d)
		if err != nil {
			return nil, err
		}
		if certain {
			want[k] = true
		}
	}
	return want, nil
}

// TestAnswersDifferential replays the seeded corpus as certain-answers
// requests. For each case the flat evaluation, local shard pools of 1,
// 3 and 7 shards and a SimNet-routed three-node cluster must return the
// same ordered list, sorted by binding key, and as a set it must equal
// the per-candidate oracle. Both answer paths — the block sweep and
// candidate enumeration — must be exercised by a fair share of cases.
func TestAnswersDifferential(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	names := []string{"n0", "n1", "n2"}
	nodes := make([]*cluster.LocalNode, len(names))
	for i, name := range names {
		nodes[i] = cluster.NewLocalNode(name)
	}
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        names,
		Shards:       5,
		Transport:    cluster.NewSimNet(cluster.NewLoopback(nodes...), 1),
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, swept, answered := 0, 0, 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		q, d := Generate(seed, byte(seed%NumShapes))
		if d.NumRepairs() > MaxOracleRepairs {
			continue
		}
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		free := answersFree(seed, plan)
		want, err := oracleAnswers(q, d, free)
		if err != nil {
			continue // raced past the oracle bound
		}
		checked++
		if plan.ScatterableFO(core.Options{}) && plan.Elim.SweepableFree(free) {
			swept++
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (free %v): "+format+"\nquery: %s\ndb:\n%s", append(append([]any{seed, free}, args...), q, d)...)
		}

		ix := match.NewIndex(d)
		flat, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, core.Options{})
		if err != nil {
			fail("flat: %v", err)
		}
		keys := make([]string, len(flat))
		for i, v := range flat {
			keys[i] = v.Key()
		}
		if !sort.StringsAreSorted(keys) {
			fail("flat answers not in binding-key order: %q", keys)
		}
		if len(keys) != len(want) {
			fail("flat answers %q, oracle %v", keys, want)
		}
		for _, k := range keys {
			if !want[k] {
				fail("flat answer %s is not certain per the oracle %v", k, want)
			}
		}
		if len(flat) > 0 {
			answered++
		}

		for _, k := range []int{1, 3, 7} {
			pool := shard.NewPool(d, k, shard.PoolOptions{})
			local, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, core.Options{ShardPool: pool})
			pool.Close()
			if err != nil {
				fail("%d local shards: %v", k, err)
			}
			if !reflect.DeepEqual(local, flat) {
				fail("%d local shards %v, flat %v", k, local, flat)
			}
		}

		for _, n := range nodes {
			n.Store.Put("corpus", d)
		}
		routed, err := r.CertainAnswers(ctx, plan, "corpus", free, core.Options{})
		if err != nil {
			fail("routed: %v", err)
		}
		if got := routed.Valuations(); !reflect.DeepEqual(got, flat) {
			fail("routed %v, flat %v", got, flat)
		}
	}
	if checked < wantChecked {
		t.Fatalf("verified only %d cases, want %d", checked, wantChecked)
	}
	if swept < 100 || checked-swept < 200 || answered < wantChecked/4 {
		t.Fatalf("%d cases: %d on the sweep path, %d on the candidate path, %d with answers; want >= 100, >= 200 and >= %d",
			checked, swept, checked-swept, answered, wantChecked/4)
	}
	t.Logf("verified %d cases: %d swept, %d by candidates, %d with answers", checked, swept, checked-swept, answered)
}
