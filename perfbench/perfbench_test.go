package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: tail must sort
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		beyondMin int
	}{
		{n: 2000, value: 1980, pct: 99, beyondMin: 20}, // p99 has 20 beyond it
		{n: 1000, value: 990, pct: 99, beyondMin: 10},  // exactly ten beyond
		{n: 500, value: 490, pct: 98, beyondMin: 10},   // p99 has only 5: fall back to p98
		{n: 11, value: 1, pct: 100 / 11.0, beyondMin: 10},
		{n: 10, value: 5, pct: 50},
		{n: 1, value: 1, pct: 50},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.value || pct-tc.pct > 1e-9 || tc.pct-pct > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pct)
		}
		if tc.beyondMin > 0 && tc.n-int(v) < tc.beyondMin {
			t.Errorf("n=%d: only %d samples beyond %v", tc.n, tc.n-int(v), v)
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("empty: tail = %v at p%v", v, pct)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50}, // overlaps the next one
		{Start: 10, End: 30},
		{Start: 40, End: 45},   // inside the first
		{Start: 90, End: 120},  // runs past the parent: clipped at 100
		{Start: 150, End: 160}, // outside entirely
	}
	// Covered: [10,50] and [90,100] = 50 of 100.
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %v, want 50ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100ns", got)
	}
	full := []span{{Start: -5, End: 60}, {Start: 60, End: 200}}
	if got := selfTime(parent, full); got != 0 {
		t.Errorf("selfTime fully covered = %v, want 0", got)
	}
}

func TestReduceSpans(t *testing.T) {
	tr := newTracer()
	at := func(d int64) int64 { return d * int64(time.Millisecond) }
	tr.spans = []span{
		{ID: 1, Req: 7, Name: spanRequest, Start: at(0), End: at(10)},
		{ID: 2, Parent: 0, Req: 7, Name: spanEngine, Start: at(2), End: at(9)},
		{ID: 3, Parent: 2, Req: 7, Name: spanParse, Start: at(2), End: at(3)},
		{ID: 4, Parent: 2, Req: 7, Name: spanPlan, Start: at(3), End: at(9)},
		{ID: 5, Parent: 4, Req: 7, Name: spanScan, Start: at(3), End: at(5)},
		{ID: 6, Parent: 4, Req: 7, Name: spanRecon, Start: at(5), End: at(8)},
	}
	sl := reduceSpans(tr.snapshot())
	if len(sl.serverSelf) != 1 || sl.serverSelf[0] != 3 {
		t.Errorf("server self = %v, want [3]", sl.serverSelf)
	}
	if sl.planSelf[0] != 1 || sl.scan[0] != 2 || sl.recon[0] != 3 || sl.parse[0] != 1000 {
		t.Errorf("plan self %v, scan %v, recon %v, parse %v", sl.planSelf, sl.scan, sl.recon, sl.parse)
	}
}

// result is the command's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "0.4", "--workdir", t.TempDir()}, args...)
	code := cli(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil && code != 1 {
		t.Fatalf("last line is not the result: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, r, stdout.String() + stderr.String()
}

// identicalNote is the traced run's count of sample queries whose traced
// and untraced responses matched.
var identicalNote = regexp.MustCompile(`byte-identical to untraced \(elapsed_ms aside\): (\d+) of (\d+) sample queries`)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line carries every metric the metric tables name.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"serve_hot", "serve_cold", "commit_mixed"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, r, out := runTiny(t, "--workload", w, "--seed", "3", "--trace", trace)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, r, out)
				}
				defs := endToEndMetrics
				if trace == "1" {
					defs = perLayerMetrics
					m := identicalNote.FindStringSubmatch(out)
					if w != "commit_mixed" && (m == nil || m[1] != m[2] || m[1] == "0") {
						t.Errorf("traced serve run did not compare every sample response:\n%s", out)
					}
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, m := range defs {
					if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s missing or wrong unit: %+v", m.name, got)
					}
				}
			})
		}
	}
}

// TestCorruptedExpectationFails proves the checks bite: a perturbed
// reference answer (serve) or acknowledged-version count (commit_mixed)
// fails the run.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range []string{"serve_hot", "commit_mixed"} {
		t.Run(w, func(t *testing.T) {
			code, r, out := runTiny(t, "--workload", w, "--seed", "3", "--trace", "0", "--corrupt-expected")
			if code == 0 || r.Correct || r.Failed == 0 {
				t.Fatalf("corrupted expectation passed: exit %d, %+v\n%s", code, r, out)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the command %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range endToEndMetrics {
		e := b.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, e, m)
		}
	}
	for i, m := range perLayerMetrics {
		e := b.PerLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, e, m)
		}
	}
	names := specs(false)
	for _, w := range b.Workloads {
		if _, ok := names[w.Name]; !ok {
			t.Errorf("workload %s is not one the command runs", w.Name)
		}
	}
	if len(b.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(names))
	}
}
