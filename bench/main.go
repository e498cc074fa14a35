// Command bench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads through the back-end's public entry
// points — the Table 3 flow (flow.RunAllCtx), the synth executor
// (server.RunSynth) and an in-process balsabmd daemon over loopback
// HTTP — checks every output against pinned digests, and prints one
// JSON result line. A traced run (-trace 1) instead replays each
// workload layer by layer through the modules' public functions and
// reports per-layer metrics plus a Chrome trace-event file.
//
// Usage, from the repository root (see README.md):
//
//	bash bench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                  # every workload, plain and traced
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"syscall"
)

// metricDef names one reported metric and its unit. The names are the
// contract later performance work quotes; BENCHMARK.json lists the
// same names and units, which the smoke test enforces.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of a plain run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"circuit_area_um2", "um2"},
}

// perLayer are the metrics of a traced run that every workload
// exercises, all per op. Layers only some workloads reach (simulation,
// the daemon's legs, the store) are written to the layers file and the
// summary instead, so no printed metric is a constant zero.
var perLayer = []metricDef{
	{"analysis.ms", "ms"},
	{"core.ms", "ms"},
	{"core.merges", "count"},
	{"core.merge_ratio", "ratio"},
	{"core.alloc_mb", "MB"},
	{"bmlint.ms", "ms"},
	{"chtobm.ms", "ms"},
	{"chtobm.calls", "count"},
	{"chtobm.states", "count"},
	{"minimalist.ms", "ms"},
	{"minimalist.calls", "count"},
	{"minimalist.alloc_mb", "MB"},
	{"hfmin.functions", "count"},
	{"hfmin.exact_ratio", "ratio"},
	{"hfmin.enum_nodes", "count"},
	{"hfmin.branch_nodes", "count"},
	{"techmap.map_ms", "ms"},
	{"techmap.audit_ms", "ms"},
	{"techmap.cells", "count"},
	{"gates.rename_ms", "ms"},
	{"netlint.ms", "ms"},
	{"hazver.gate_ms", "ms"},
	{"hazver.audit_ms", "ms"},
	{"hazver.resynth_ms", "ms"},
	{"flow.reuse_ratio", "ratio"},
	{"flow.unattributed_ms", "ms"},
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the result metrics for defs from computed values.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table3, synth-corpus or edit-loop (empty: all, each in its own process, plain then traced)")
	seed := fs.Int64("seed", 1, "seed of the op order")
	seconds := fs.Int("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer replay and reports per-layer metrics")
	out := fs.String("out", "", "directory for trace-<workload>.json and layers-<workload>.json (default: a new temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload name] [--seed n] [--seconds n] [--trace 0|1] [--out dir]")
		return 2
	}
	if *name == "" {
		return runAll(ctx, *seed, *seconds, *out, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	r := &runner{seed: *seed, seconds: *seconds, out: *out, log: stderr}
	var res *result
	var err error
	if *trace == 1 {
		res, err = r.traced(ctx, w)
	} else {
		res, err = r.endToEnd(ctx, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printSummary(stderr, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, plain and then traced, each in a child
// process of this binary so that max_rss_mb and the garbage collector's
// state belong to one workload alone.
func runAll(ctx context.Context, seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if out == "" {
		if out, err = os.MkdirTemp("", "balsabench-trace-"); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, trace := range []string{"0", "1"} {
		for _, name := range workloadOrder {
			args := []string{"--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", out}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %s): %v\n", name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// printSummary writes a human-readable table of a result.
func printSummary(w io.Writer, name string, res *result) {
	fmt.Fprintf(w, "%s: correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
