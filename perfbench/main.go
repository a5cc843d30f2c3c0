// Command perfbench is txmldb's end-to-end and per-layer benchmark. It
// builds one workload from a seed, serves it through internal/server over
// loopback HTTP from a durable engine configured as cmd/txserved's
// defaults, drives it closed-loop for a fixed time, checks every answer,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a separate traced phase (--trace 1). Any wrong answer, failed request or
// failed commit makes the exit code 1.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "serve_hot, serve_cold or commit_mixed")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced phase")
	fs.StringVar(&opt.workdir, "workdir", ".", "directory for data directories and span files")
	fs.BoolVar(&opt.tiny, "tiny", false, "shrink the workload (self-tests)")
	fs.BoolVar(&opt.corrupt, "corrupt-expected", false, "perturb one expected answer (proves the checks fail the run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	out, err := execute(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, opt, out)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// report prints provenance, sizes and every metric, then the result line.
func report(w io.Writer, opt options, out *outcome) {
	s := out.spec
	fmt.Fprintf(w, "# %s\n", host())
	fmt.Fprintf(w, "# workload %s seed %d: %d docs x %d versions (+%d for the writer), %d initial elements, %d edits/version; vcache %d B; working set %d versions, %d B\n",
		s.name, opt.seed, s.docs, s.versions, s.future, s.elems, s.ops, out.cacheB, out.wsVers, out.ws)
	fmt.Fprintf(w, "# load: %d reader(s), writer %v, closed loop; %d setups; %.1f s timed\n", s.readers, s.writer, s.setups, opt.seconds)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, err := range out.failures {
		fmt.Fprintf(w, "# FAILED: %v\n", err)
	}
	fmt.Fprintln(w, "# end to end (untraced):")
	for _, m := range endToEndMetrics {
		extra := ""
		if t, ok := out.tailPct[m.name]; ok {
			extra = fmt.Sprintf("  (p%.2f of %d samples)", t[0], int(t[1]))
		}
		if v, ok := out.traced[m.name]; ok {
			extra += fmt.Sprintf("  traced %.6g", v)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s%s\n", m.name, out.e2e[m.name], m.unit, extra)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s\n", "failed_frac", out.e2e["failed_frac"], "ratio")
	fmt.Fprintln(w, "# per layer:")
	for _, m := range perLayerMetrics {
		if v, ok := out.layer[m.name]; ok {
			fmt.Fprintf(w, "%-36s %14.6g %-6s moves %s on %s\n", m.name, v, m.unit, m.moves, m.on)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]value{}}
	defs, vals := endToEndMetrics, out.e2e
	if opt.trace {
		defs, vals = perLayerMetrics, out.layer
	}
	for _, m := range defs {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// metric describes one reported number. For per-layer metrics, moves and
// on name the end-to-end metric the layer should move and the workload on
// which it shows.
type metric struct {
	name, unit, better string
	bound              float64
	moves, on          string
}

// endToEndMetrics are what a user of txserved and the durable engine sees.
// failed_frac is printed beside them; it is 0 on a correct run, so the
// result line carries it as attempted/failed instead.
var endToEndMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "commit_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "commit_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "commit_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "reopen_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.15},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.15},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "store_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.15},
	{name: "wal_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.1},
}

var perLayerMetrics = []metric{
	{name: "server.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "server.resp_bytes_per_query", unit: "B", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "query.parse_us", unit: "us", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "plan.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "plan.rows_examined_per_row", unit: "ratio", better: "lower", moves: "query_qps", on: "serve_hot"},
	{name: "pattern.scan_ms", unit: "ms", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "pattern.matches_per_query", unit: "count", better: "lower", moves: "query_p50_ms", on: "serve_hot"},
	{name: "store.reconstruct_ms", unit: "ms", better: "lower", moves: "query_qps,query_p50_ms", on: "serve_cold"},
	{name: "store.reconstructs_per_query", unit: "count", better: "lower", moves: "query_qps", on: "serve_cold"},
	{name: "store.versions_us", unit: "us", better: "lower", moves: "query_p99_ms", on: "serve_cold"},
	{name: "vcache.hit_ratio", unit: "ratio", better: "higher", moves: "query_qps", on: "serve_cold"},
	{name: "vcache.ancestor_hit_ratio", unit: "ratio", better: "higher", moves: "query_p50_ms", on: "serve_cold"},
	{name: "vcache.evictions_per_query", unit: "count", better: "lower", moves: "query_p99_ms", on: "serve_cold"},
	{name: "vcache.invalidations_per_commit", unit: "count", better: "lower", moves: "query_p50_ms", on: "commit_mixed"},
	{name: "pagestore.extent_reads_per_query", unit: "count", better: "lower", moves: "query_qps", on: "serve_cold"},
	{name: "pagestore.seeks_per_query", unit: "count", better: "lower", moves: "query_qps", on: "serve_cold"},
	{name: "pagestore.pool_hit_ratio", unit: "ratio", better: "higher", moves: "query_p50_ms", on: "serve_cold"},
	{name: "pagestore.wal_syncs_per_commit", unit: "count", better: "lower", moves: "commit_p50_ms", on: "commit_mixed"},
	{name: "pagestore.wal_bytes_per_commit", unit: "B", better: "lower", moves: "commit_per_s,wal_bytes_per_user_byte", on: "commit_mixed"},
	{name: "pagestore.page_writes_per_commit", unit: "count", better: "lower", moves: "commit_p50_ms", on: "commit_mixed"},
	{name: "diff.ops_per_commit", unit: "count", better: "lower", moves: "commit_p50_ms", on: "commit_mixed"},
	{name: "fti.postings_per_commit", unit: "count", better: "lower", moves: "commit_p50_ms,setup_s", on: "commit_mixed"},
	{name: "core.reopen_replay_s", unit: "s", better: "lower", moves: "reopen_s", on: "commit_mixed"},
	{name: "core.reopen_index_s", unit: "s", better: "lower", moves: "reopen_s", on: "commit_mixed"},
	{name: "parallel.tasks_per_query", unit: "count", better: "lower", moves: "query_p50_ms", on: "serve_cold"},
	{name: "parallel.queue_wait_ms_per_query", unit: "ms", better: "lower", moves: "query_p99_ms", on: "serve_cold"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: "allocs_per_op,query_qps", on: "serve_cold"},
}
