package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

// lastLine decodes the one-line JSON summary a run ends with.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return m
}

// TestShortRuns runs every workload briefly, untraced and traced: every
// response must pass its check, every metric of the benchmark
// definition must be reported, and the shard and journal layers must
// show up only on the workloads that exercise them.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				out := filepath.Join(t.TempDir(), "results")
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.4",
					"--trace", trace, "--spec", specPath, "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				line := lastLine(t, stdout.String())
				if line["correct"] != true || line["failed"].(float64) != 0 {
					t.Fatalf("wrong responses: %v\n%s", line, stdout.String())
				}
				files, _ := filepath.Glob(filepath.Join(out, "*.json"))
				if len(files) != 1 {
					t.Fatalf("want one result file, got %v", files)
				}
				var res result
				b, _ := os.ReadFile(files[0])
				if err := json.Unmarshal(b, &res); err != nil {
					t.Fatal(err)
				}
				if trace == "0" {
					return
				}
				for metric := range res.Metrics {
					if strings.HasPrefix(metric, "shard.") && name != "sharded-sweep" {
						t.Errorf("%s reported on %s", metric, name)
					}
					if strings.HasPrefix(metric, "wal.") && name != "write-read" {
						t.Errorf("%s reported on %s", metric, name)
					}
				}
				want := map[string]string{"sharded-sweep": "shard.merge_ms", "write-read": "wal.bytes_per_record"}
				if m, ok := want[name]; ok {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("%s missing on %s", m, name)
					}
				}
				if !strings.Contains(res.Report, "unattributed") || !strings.Contains(res.Report, "tracing overhead") {
					t.Errorf("layer report incomplete:\n%s", res.Report)
				}
			})
		}
	}
}

// streamHash hashes a workload's uploads and the first n request bodies
// of its stream.
func streamHash(t *testing.T, name string, seed int64, n int) string {
	t.Helper()
	w, err := buildWorkload(name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, u := range w.uploads {
		h.Write([]byte(u.name + "\x00" + u.facts + "\x00"))
	}
	for i := 0; i < n; i++ {
		k := w.at(i)
		h.Write([]byte(k.path + "\x00"))
		h.Write(k.bodyAt(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamHash(t, name, 3, 3000), streamHash(t, name, 3, 3000)
		if a != b {
			t.Errorf("%s: seed 3 gave different inputs on two generations", name)
		}
		if c := streamHash(t, name, 4, 3000); c == a {
			t.Errorf("%s: seeds 3 and 4 gave identical inputs", name)
		}
	}
}

// TestWrongExpectationFails corrupts the oracle's verdicts after setup:
// the responses, now disagreeing with it, must be counted as failures.
func TestWrongExpectationFails(t *testing.T) {
	w, err := buildWorkload("catalog-mix", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := setup(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	for _, k := range w.kinds {
		if k.op == opClassify {
			k.want = &expect{class: "not a class"}
		}
	}
	r, _ := runWindow(in, w, 2, 200*time.Millisecond, false)
	if r.failed == 0 || r.attempted == 0 {
		t.Fatalf("corrupted expectations went unnoticed: %d of %d failed", r.failed, r.attempted)
	}
	if !strings.Contains(strings.Join(r.reasons, "\n"), "classify") {
		t.Errorf("failure reasons do not name the check: %v", r.reasons)
	}
}

func TestCheckCountInterval(t *testing.T) {
	k := &kind{op: opCount, want: &expect{total: "8", fraction: 0.5}}
	in := []byte(`{"total": "8", "fraction": 0.55, "confidence": 0.1, "exact": false}`)
	out := []byte(`{"total": "8", "fraction": 0.7, "confidence": 0.1, "exact": false}`)
	if o := check(k, 200, in, &clientState{}); !o.ok || !o.sampled || o.ciMiss {
		t.Errorf("covering interval: %+v", o)
	}
	if o := check(k, 200, out, &clientState{}); !o.ok || !o.ciMiss {
		t.Errorf("missing interval: %+v", o)
	}
	if o := check(k, 200, []byte(`{"total": "9", "exact": true, "satisfying": "4"}`), &clientState{}); o.ok {
		t.Errorf("wrong total accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSpecUnits(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		if u := unitOf(md.Name); u != md.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed unit %q", md.Name, md.Unit, u)
		}
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for side, scale := range []float64{1, 1.5} {
		for i := 0; i < 5; i++ {
			r := result{Workload: "fo-sweep", Correct: true, Metrics: map[string]float64{
				"certain_p50_ms": scale * (30 + float64(i)*0.1),
				"heap_mb":        140 + float64(i)*0.01,
			}}
			b, _ := json.Marshal(r)
			if err := os.WriteFile(filepath.Join(dirs[side], strings.Repeat("r", i+1)+".json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareDirs(&out, sp, dirs[0], dirs[1]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"certain_p50_ms", "worse", "heap_mb", "within bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// TestWriteReadAlternates checks that every client of write-read
// alternates a write with a read, and that each delete removes a W fact
// the same client inserted before it.
func TestWriteReadAlternates(t *testing.T) {
	const clients = 3
	w, err := buildWorkload("write-read", 1, clients)
	if err != nil {
		t.Fatal(err)
	}
	inserted := map[string]int{}
	for c := 0; c < clients; c++ {
		for n := 0; n < 40; n++ {
			i := c + clients*n
			k := w.at(i)
			if (k.op == opMutate) != (n%2 == 0) {
				t.Fatalf("client %d request %d: %s, want a write on even requests and a read on odd ones", c, n, k.op)
			}
			var m struct{ Insert, Delete []string }
			if k.op != opMutate {
				continue
			}
			if err := json.Unmarshal(k.bodyAt(i), &m); err != nil {
				t.Fatal(err)
			}
			for _, f := range m.Insert {
				inserted[f] = c
			}
			for _, f := range m.Delete {
				if owner, ok := inserted[f]; !ok || owner != c {
					t.Fatalf("client %d deletes %s, which it did not insert", c, f)
				}
			}
		}
	}
	if len(inserted) == 0 {
		t.Fatal("no W inserts in the stream")
	}
}
