package difftest

import (
	"context"
	"errors"
	"testing"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/naive"
)

// TestDegradedCoNPDifferential replays the seeded corpus on the coNP
// engine with a one-step budget and degradation on, so the search runs
// out at once and the verdict comes from the repair counter. Every exact
// verdict must equal the oracle; an estimate may miss a falsifying
// repair but never report false on a certain instance. A degraded
// verdict must carry exactly what counting.Count reports (the /v1/count
// approximate: true answer), and the three single-evaluation paths —
// flat, the local shard dispatch and the cluster router's KindSingle —
// must agree field for field.
func TestDegradedCoNPDifferential(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	opts := core.Options{Engine: core.EngineCoNP, MaxSteps: 1, Approximate: true}
	node := cluster.NewLocalNode("solo")
	r, err := cluster.NewRouter(cluster.Config{Nodes: []string{"solo"}, Transport: cluster.NewLoopback(node)})
	if err != nil {
		t.Fatal(err)
	}
	checked, degraded, approx := 0, 0, 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		if d.NumRepairs() > MaxOracleRepairs {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			continue // raced past the oracle bound
		}
		checked++
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := match.NewIndex(d)

		res, err := plan.CertainIndexedCtx(ctx, ix, opts)
		if err != nil {
			t.Fatalf("seed %d: degraded conp: %v", seed, err)
		}
		if !res.Approximate && res.Certain != want {
			t.Fatalf("seed %d: exact verdict %v, oracle %v\nquery: %s\ndb:\n%s", seed, res.Certain, want, q, d)
		}
		if res.Approximate {
			approx++
			if want && !res.Certain {
				t.Fatalf("seed %d: estimate answered false on a certain instance\nquery: %s\ndb:\n%s", seed, q, d)
			}
		}

		strict := opts
		strict.Approximate = false
		if _, err := plan.CertainIndexedCtx(ctx, ix, strict); errors.Is(err, evalctx.ErrBudgetExceeded) {
			degraded++
			count, err := counting.Count(q, ix, nil, counting.Options{})
			if err != nil {
				t.Fatalf("seed %d: count: %v", seed, err)
			}
			if res.Approximate != !count.Exact || res.Fraction != count.Fraction || res.Confidence != count.Confidence {
				t.Fatalf("seed %d: degraded %+v, count exact=%v fraction=%v confidence=%v",
					seed, res, count.Exact, count.Fraction, count.Confidence)
			}
		}

		sharded := opts
		sharded.Shards = 3
		local, err := plan.CertainIndexedCtx(ctx, ix, sharded)
		if err != nil {
			t.Fatalf("seed %d: local shard dispatch: %v", seed, err)
		}
		node.Store.Put("corpus", d)
		routed, partial, err := r.Certain(ctx, plan, "corpus", opts)
		if err != nil || partial != 0 {
			t.Fatalf("seed %d: routed: %v (partial %d)", seed, err, partial)
		}
		if local != res || routed != res {
			t.Fatalf("seed %d: flat %+v, local shard %+v, routed %+v", seed, res, local, routed)
		}
	}
	if checked < wantChecked {
		t.Fatalf("verified only %d cases, want %d", checked, wantChecked)
	}
	if degraded < wantChecked/2 {
		t.Fatalf("only %d of %d cases exhausted the one-step budget; the degrade path is barely exercised", degraded, checked)
	}
	t.Logf("verified %d cases: %d degraded to counting, %d estimated", checked, degraded, approx)
}
