package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSmoke runs every workload for two ops, plain and traced, and
// checks that each prints exactly the metrics BENCHMARK.json lists,
// with the same units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
	}
	ctx := context.Background()
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			r := &runner{seed: 1, seconds: 60, log: io.Discard, maxOps: 2, out: t.TempDir()}
			run, want := r.endToEnd, spec.EndToEnd
			if traced {
				run, want = r.traced, spec.PerLayer
			}
			res, err := run(ctx, workloads[name])
			if err != nil {
				t.Fatalf("%s (traced %t): %v", name, traced, err)
			}
			if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
				t.Errorf("%s (traced %t): correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %t): %d metrics printed, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %t): metric %s printed as %+v, BENCHMARK.json unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTamperedDigest checks that outputs are really compared: a wrong
// pinned digest fails the ops that produce that output.
func TestTamperedDigest(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	// Netlist 0 is the warm-up, which must pass for the run to start.
	for i := 1; i < len(exp.Corpus); i++ {
		exp.Corpus[i] = "0000000000000000"
	}
	r := &runner{seed: 1, seconds: 60, log: io.Discard, maxOps: 4, exp: exp}
	res, err := r.endToEnd(context.Background(), workloads["synth-corpus"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered digests went unnoticed: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}
