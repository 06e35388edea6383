// Command perfbench is the repository benchmark: it drives the
// cqa-serve handler in process under four request mixes, checks every
// response against an oracle, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload fo-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare OLD_RESULTS_DIR NEW_RESULTS_DIR
//
// Run it from the repository root. --trace 0 measures the end-to-end
// metrics with tracing off; --trace 1 runs the same seed and stream
// again with about half the requests traced, and reports the per-layer
// metrics, the layer table and the tracing overhead. Each run also
// writes its full result to the --out directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	clients  int
	out      string
	spec     string
}

// Setup repeats: at least minSetups, and more (up to maxSetups) while
// their total stays under setupBudget, so a cheap setup is measured
// often enough for its median to settle.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// One closed-loop client per CPU: /v1 callers wait for each reply.
	o := options{clients: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced rerun")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result files")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	compare := fs.Bool("compare", false, "compare the result files of two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two result directories")
			return 2
		}
		if err := compareDirs(stdout, sp, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.trace != 0 && o.trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	res, err := runBenchmark(o, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := emit(o, sp, res, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is one run, as written to the result file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Report    string             `json:"report,omitempty"`
}

func runBenchmark(o options, sp *spec, stdout io.Writer) (*result, error) {
	w, err := buildWorkload(o.workload, o.seed, o.clients)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(filepath.Dir(filepath.Clean(o.out)), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host: stampHost(o.seed, o.clients, tmp)}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		err = runEndToEnd(w, o, dur, tmp, res)
	} else {
		err = runTraced(w, o, dur, tmp, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Report != "" {
		fmt.Fprint(stdout, res.Report)
	}
	return res, nil
}

// runEndToEnd measures the end-to-end metrics: repeated setups for
// setup_s and heap_mb, then one untraced closed-loop window.
func runEndToEnd(w *mix, o options, dur time.Duration, tmp string, res *result) error {
	var setups, heaps []float64
	var in *instance
	var total time.Duration
	for rep := 0; rep < maxSetups; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return err
			}
			in = nil
		}
		base := liveHeap()
		inst, d, err := setup(w, tmp)
		if err != nil {
			return err
		}
		heaps = append(heaps, (float64(liveHeap())-float64(base))/(1<<20))
		setups = append(setups, d.Seconds())
		in, total = inst, total+d
		if rep+1 >= minSetups && total >= setupBudget {
			break
		}
	}
	walBefore, _ := in.srv.Store().WALStats()
	r, _ := runWindow(in, w, o.clients, dur, false)
	walAfter, _ := in.srv.Store().WALStats()
	if err := in.close(); err != nil {
		return err
	}
	m := map[string]float64{
		"setup_s":        median(setups),
		"heap_mb":        median(heaps),
		"throughput_rps": float64(r.completed()) / r.elapsed.Seconds(),
		"error_rate":     float64(r.failed) / float64(r.attempted),
	}
	for op, lat := range r.lat {
		if len(lat) == 0 {
			continue
		}
		name := opNames[op]
		m[name+"_p50_ms"] = percentile(lat, 0.5)
		m[name+"_p90_ms"] = percentile(lat, 0.9)
		m[name+"_samples"] = float64(len(lat))
	}
	if r.mutations > 0 && w.wal {
		m["wal_bytes_per_write"] = float64(walAfter.Bytes-walBefore.Bytes) / float64(r.mutations)
	}
	if r.certainN > 0 {
		m["degraded_share"] = float64(r.degraded) / float64(r.certainN)
		m["degraded_disagree"] = float64(r.disagree)
	}
	if r.sampled > 0 {
		m["count_sampled"] = float64(r.sampled)
		m["count_ci_misses"] = float64(r.ciMisses)
	}
	m["setup_runs"] = float64(len(setups))
	res.Metrics = m
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.reasons
	return nil
}

// runTraced is the traced run: the same seed and stream from a fresh
// setup, with a seeded half of the requests carrying X-CQA-Trace, then
// the direct per-layer calls on the same warm instance.
func runTraced(w *mix, o options, dur time.Duration, tmp string, res *result) error {
	in, _, err := setup(w, tmp)
	if err != nil {
		return err
	}
	defer in.close()
	lr := &layerRun{wal: w.wal, spans: map[*kind]*spans{}}
	// The window starts from a collection, as the end-to-end one does.
	runtime.GC()
	cache0, idx := in.srv.Cache().Stats(), in.srv.Store().IndexStats()
	ih0, im0 := idx.Hits(), idx.Misses()
	wal0, _ := in.srv.Store().WALStats()
	lr.untraced, lr.traced = runWindow(in, w, o.clients, dur, true)
	cache1 := in.srv.Cache().Stats()
	wal1, _ := in.srv.Store().WALStats()
	lr.cacheHits, lr.cacheMisses = cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	lr.indexHits, lr.indexMisses = idx.Hits()-ih0, idx.Misses()-im0
	lr.walBytes, lr.walRecords = wal1.Bytes-wal0.Bytes, wal1.Records-wal0.Records

	// Direct calls, kind by kind in stream order: every repeating kind
	// and the first maxFreshKinds fresh ones. The measured kinds of each
	// group (repeating or fresh) stand for the whole group: the group
	// weighs its share of the window's requests, split among its
	// measured kinds by their request counts.
	count := map[*kind]int{}
	for _, r := range []*windowResult{lr.untraced, lr.traced} {
		for k, n := range r.perKind {
			count[k] += n
		}
	}
	groupCount, measuredCount := map[bool]int{}, map[bool]int{}
	for k, n := range count {
		groupCount[k.fresh] += n
	}
	nFresh := 0
	for i := 0; i < lr.traced.issued; i++ {
		k := w.at(i)
		if lr.spans[k] != nil || count[k] == 0 || k.fresh && nFresh >= maxFreshKinds {
			continue
		}
		s, err := measureKind(in, w, k)
		if err != nil {
			return err
		}
		if k.fresh {
			nFresh++
		}
		measuredCount[k.fresh] += count[k]
		lr.kinds = append(lr.kinds, k)
		lr.spans[k] = s
	}
	attempted := lr.untraced.attempted + lr.traced.attempted
	for _, k := range lr.kinds {
		g := k.fresh
		lr.spans[k].share = float64(groupCount[g]) / float64(attempted) * float64(count[k]) / float64(measuredCount[g])
	}
	if lr.iso, err = measureIsolated(w); err != nil {
		return err
	}
	m := lr.layerMetrics()
	res.Metrics = m
	res.Report = lr.report(w, m)
	res.Attempted = attempted
	res.Failed = lr.untraced.failed + lr.traced.failed
	res.Failures = append(lr.untraced.reasons, lr.traced.reasons...)
	return nil
}

// emit prints every metric by name and unit, writes the result file,
// and ends with the one-line JSON summary of the metrics the benchmark
// definition lists for this mode.
func emit(o options, sp *spec, res *result, stdout io.Writer) error {
	h := res.Host
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q os=%s commit=%s source_sha256=%.16s seed=%d clients=%d wal_fs=%s wal_flush=%q\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.OS, h.Commit, h.SourceSHA256, h.Seed, h.Clients, h.WALFS, h.WALFlush)
	fmt.Fprintf(stdout, "workload=%s trace=%d seconds=%g attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Trace, res.Seconds, res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "failure:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, res.Metrics[n], unitOf(n))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano()))
	if err := os.WriteFile(file, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "result file:", file)

	want := sp.EndToEnd
	if res.Trace == 1 {
		want = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, md := range want {
		v, ok := res.Metrics[md.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, md.Name)
			continue
		}
		metrics[md.Name] = value{v, md.Unit}
	}
	if len(missing) > 0 {
		return errors.New("no value for metric(s) " + strings.Join(missing, ", "))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
