package server

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/cell"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/techmap"
)

// TestE2EDesignByteIdentical proves the acceptance criterion: a design
// submitted over HTTP yields byte-identical results to the in-process
// flow, and a repeated submission is served from the dedup cache,
// observable via the /metrics hit count.
func TestE2EDesignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flow on the systolic counter")
	}
	_, hs, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	// In-process reference run, encoded with the shared api encoder.
	r, err := flow.RunDesign(designs.SystolicCounter(), &flow.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := api.Encode(api.FromDesignResult(r))
	if err != nil {
		t.Fatal(err)
	}

	// The same design over HTTP.
	req := api.JobRequest{Kind: api.KindDesign, Design: "systolic-counter",
		Config: api.FlowConfig{Workers: 2}}
	res, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := api.Encode(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, remote) {
		t.Fatalf("HTTP result differs from in-process flow:\n--- direct ---\n%s\n--- remote ---\n%s",
			direct, remote)
	}

	// Submitting the identical design again must not re-run the flow.
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || !st.Dedup {
		t.Fatalf("repeat submission: state=%s dedup=%v, want done/true", st.State, st.Dedup)
	}
	res2, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	remote2, err := api.Encode(res2.Design)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, remote2) {
		t.Fatal("dedup-served result differs from the first run")
	}

	// The hit is observable on /metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1", m.DedupHits)
	}
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "balsabmd_dedup_hits_total 1") {
		t.Fatalf("/metrics missing dedup hit count:\n%s", buf.String())
	}
}

// TestE2ESynthByteIdenticalNetlists proves submitted sources come back
// with netlists byte-identical to the in-process pipeline: clustering,
// synthesis and mapping of the systolic counter's control netlist,
// compared as emitted Verilog.
func TestE2ESynthByteIdenticalNetlists(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the systolic counter control netlist")
	}
	_, _, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	control := designs.SystolicCounter().Control()
	source := control.Format()

	// In-process reference: the opt arm's checked synthesis (clustering,
	// speed-split mapping, every gate), Verilog per controller.
	arm, err := flow.SynthesizeCheckedCtx(ctx, "reference", api.ModeOpt, control, &flow.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mapped, ctrls := arm.Mapped, arm.Controllers
	lib := cell.AMS035()

	res, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: source,
		Mode: api.ModeOpt, Config: api.FlowConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Synth == nil || len(res.Synth.Controllers) != len(mapped) {
		t.Fatalf("synth returned %d controllers, want %d", len(res.Synth.Controllers), len(mapped))
	}
	for i, sc := range res.Synth.Controllers {
		wantV := techmap.VerilogModules(mapped[i], lib)
		if sc.Verilog != wantV {
			t.Errorf("controller %s: Verilog differs from in-process mapping", ctrls[i].Name)
		}
		want := api.FromControllerResult(ctrls[i])
		if sc.Controller != want {
			t.Errorf("controller %s: summary %+v, want %+v", ctrls[i].Name, sc.Controller, want)
		}
	}
}
