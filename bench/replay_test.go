package main

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/server"
)

// TestReplayFidelity holds the traced replay to what the flow does, so
// the per-layer numbers measure the flow's own work: for every Table 3
// design (both arms) and the first 8 corpus netlists, the replay's
// per-controller results and simulated benchmark times equal the
// flow's.
func TestReplayFidelity(t *testing.T) {
	ctx := context.Background()
	rp := newReplayer(newTracer("test"))
	rp.startOp()
	for _, d := range designs.All() {
		want, err := flow.RunDesign(d, &flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.design(ctx, d)
		if err != nil {
			t.Fatalf("%s: replay: %v", d.Name, err)
		}
		for _, arm := range []struct {
			name      string
			got, want flow.ArmResult
		}{{"unopt", got.Unopt, want.Unopt}, {"opt", got.Opt, want.Opt}} {
			if !reflect.DeepEqual(arm.got.Controllers, arm.want.Controllers) {
				t.Errorf("%s %s: replay controllers\n%+v\nflow controllers\n%+v", d.Name, arm.name, arm.got.Controllers, arm.want.Controllers)
			}
			if arm.got.BenchTime != arm.want.BenchTime {
				t.Errorf("%s %s: replay BenchTime %v, flow %v", d.Name, arm.name, arm.got.BenchTime, arm.want.BenchTime)
			}
		}
	}

	corpus, err := parseCorpus(corpusText)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range corpus[:8] {
		src := n.Format()
		want, err := server.RunSynth(ctx, synthRequest(src, runtime.NumCPU(), ""), &flow.Metrics{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.synth(ctx, src)
		if err != nil {
			t.Fatalf("corpus netlist %d: replay: %v", i, err)
		}
		if g, w := controllers(got), controllers(want); !reflect.DeepEqual(g, w) {
			t.Errorf("corpus netlist %d: replay controllers\n%+v\nflow controllers\n%+v", i, g, w)
		}
	}
}

func controllers(res *api.JobResult) []api.ControllerJSON {
	var out []api.ControllerJSON
	for _, c := range res.Synth.Controllers {
		out = append(out, c.Controller)
	}
	return out
}
