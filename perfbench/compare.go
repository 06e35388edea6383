package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and bounds.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &sp, nil
}

// defaultBound is the bound of the end-to-end metrics a workload reports
// beyond the ones every workload shares (and so beyond BENCHMARK.json):
// the other operations' latencies, error_rate and wal_bytes_per_write.
const defaultBound = 0.25

// metricDefFor returns the definition of a metric: from BENCHMARK.json
// when listed there, else derived from its name. ok is false for
// metrics the comparison skips (sample counts and other bookkeeping).
func (sp *spec) metricDefFor(name string, trace int) (metricDef, bool) {
	for _, list := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, md := range list {
			if md.Name == name {
				return md, true
			}
		}
	}
	if strings.HasSuffix(name, "_samples") || name == "setup_runs" {
		return metricDef{}, false
	}
	md := metricDef{Name: name, Unit: unitOf(name), Better: "lower"}
	if strings.HasSuffix(name, "_rps") || strings.HasSuffix(name, "hit_ratio") {
		md.Better = "higher"
	}
	if trace == 0 {
		md.Bound = defaultBound
	}
	return md, true
}

// unitOf names a metric's unit from its last name component.
func unitOf(name string) string {
	n := strings.ReplaceAll(name, ".", "_")
	switch {
	case strings.HasSuffix(n, "_per_fact"):
		if strings.Contains(n, "bytes") {
			return "bytes"
		}
		return "us"
	case strings.HasSuffix(n, "_per_write"), strings.HasSuffix(n, "_per_record"):
		return "bytes"
	}
	i := strings.LastIndex(n, "_")
	switch n[i+1:] {
	case "ms", "us", "s":
		return n[i+1:]
	case "rps":
		return "1/s"
	case "mb":
		return "MiB"
	case "kb":
		return "KiB"
	case "pct":
		return "%"
	case "ratio", "share", "rate":
		return "ratio"
	}
	return "count"
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the definition the spread checks use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares old and new runs of one metric against its bound.
// better needs the medians to differ by more than the old runs' own
// spread with nine in ten cross pairs favouring new; worse needs the
// median to move past the bound; a spread wider than the bound leaves
// the metric unresolved unless every new run beats every old one.
func verdict(md metricDef, old, cur []float64) (string, float64) {
	_, mo, _ := quartiles(old)
	_, mc, _ := quartiles(cur)
	sign := 1.0
	if md.Better == "higher" {
		sign = -1
	}
	// worse > 0 means the new median is worse, as a share of the old.
	worse := sign * (mc - mo) / math.Abs(mo)
	switch {
	case md.Bound == 0:
		return "no bound", worse
	case mo == 0 && sign*mc > 0:
		// A count that should stay 0, such as errors: any rise is worse.
		return "worse", worse
	case mo == 0:
		return "within bound", 0
	}
	spread := func(xs []float64) float64 {
		q1, q2, q3 := quartiles(xs)
		if q2 == 0 {
			return q3 - q1
		}
		return (q3 - q1) / math.Abs(q2)
	}
	wins, pairs := 0, 0
	for _, a := range old {
		for _, b := range cur {
			pairs++
			if sign*(b-a) < 0 {
				wins++
			}
		}
	}
	switch {
	case wins == pairs && worse < 0:
		return "better", worse
	case math.Max(spread(old), spread(cur)) > md.Bound:
		return "unresolved", worse
	case worse > md.Bound:
		return "worse", worse
	case -worse > spread(old) && float64(wins) >= 0.9*float64(pairs):
		return "better", worse
	}
	return "within bound", worse
}

func readResults(dir string) ([]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// compareDirs reports, per workload and metric, whether the runs in
// newDir are better, worse or unresolved against those in oldDir.
func compareDirs(w io.Writer, sp *spec, oldDir, newDir string) error {
	old, err := readResults(oldDir)
	if err != nil {
		return err
	}
	cur, err := readResults(newDir)
	if err != nil {
		return err
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]*result(nil), old...), cur...) {
		hosts[r.Host.comparable()] = true
	}
	if len(hosts) > 1 {
		fmt.Fprintln(w, "WARNING: the results come from different hosts; their numbers are not comparable:")
		for h := range hosts {
			fmt.Fprintln(w, "  host:", h)
		}
	}
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []*result) map[key]map[string][]float64 {
		g := map[key]map[string][]float64{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if g[k] == nil {
				g[k] = map[string][]float64{}
			}
			for n, v := range r.Metrics {
				g[k][n] = append(g[k][n], v)
			}
			if !r.Correct {
				g[k]["failed_runs"] = append(g[k]["failed_runs"], 1)
			}
		}
		return g
	}
	og, cg := group(old), group(cur)
	var keys []key
	for k := range og {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	if len(keys) == 0 {
		return fmt.Errorf("no workload has results in both directories")
	}
	for _, k := range keys {
		fmt.Fprintf(w, "== %s (trace %d): %d old runs, %d new runs; medians old -> new, change (positive is worse)\n",
			k.workload, k.trace, countRuns(old, k.workload, k.trace), countRuns(cur, k.workload, k.trace))
		if n := len(cg[k]["failed_runs"]); n > 0 {
			fmt.Fprintf(w, "   %d new run(s) had wrong or failed responses\n", n)
		}
		var names []string
		for n := range og[k] {
			if _, ok := cg[k][n]; ok && n != "failed_runs" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			md, ok := sp.metricDefFor(n, k.trace)
			if !ok {
				continue
			}
			v, worse := verdict(md, og[k][n], cg[k][n])
			_, mo, _ := quartiles(og[k][n])
			_, mc, _ := quartiles(cg[k][n])
			fmt.Fprintf(w, "   %-28s %12.5g -> %-12.5g %-5s %+7.1f%%  bound %.0f%%  %s\n",
				n, mo, mc, md.Unit, worse*100, md.Bound*100, v)
		}
	}
	return nil
}

func countRuns(rs []*result, workload string, trace int) int {
	n := 0
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			n++
		}
	}
	return n
}
