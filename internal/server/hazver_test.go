package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
)

// TestHazverEndpoint: POST /api/v1/hazver synthesizes the design and
// answers the static hazard verification of the merged mapped logic:
// zero HZ-errors on flow output and the HZ200 static report present.
// The optimized arm's synthesized controllers have every specified
// burst checked; the baseline arm ships only hand-library circuits,
// which carry no burst provenance and are counted as skipped.
func TestHazverEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		res, err := Hazver.Call(ctx, c, api.HazverRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("mode %q, want %q", res.Mode, mode)
		}
		rep := res.Report
		if rep.Circuit != "pair."+mode {
			t.Errorf("circuit %q, want pair.%s", rep.Circuit, mode)
		}
		if rep.Errors != 0 {
			t.Errorf("%s: flow-emitted design has %d HZ-errors: %+v", rep.Circuit, rep.Errors, rep.Diags)
		}
		if mode == api.ModeUnopt {
			if rep.Stats.Units != 0 || rep.Stats.Skipped != 2 || rep.Stats.Bursts != 0 {
				t.Errorf("%s: want both hand-library controllers skipped: %+v", rep.Circuit, rep.Stats)
			}
		} else if rep.Stats.Bursts == 0 || rep.Stats.Functions == 0 {
			t.Errorf("%s: empty verification: %+v", rep.Circuit, rep.Stats)
		}
		found := false
		for _, d := range rep.Diags {
			if d.Code == "HZ200" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: missing HZ200 static report: %+v", rep.Circuit, rep.Diags)
		}
	}
}

// TestHazverEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunHazver(...)) — the same bytes
// `balsabm hazver -json` prints locally.
func TestHazverEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	req := api.HazverRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/api/v1/hazver", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, remote)
	}
	res, err := RunHazver(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	local, err := api.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Errorf("server and local bytes differ:\n--- server ---\n%s--- local ---\n%s", remote, local)
	}
}

// TestHazverEndpointRejects: unknown body fields, unparsable sources
// and unknown modes answer 400 with an error body.
func TestHazverEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := hs.Client().Post(hs.URL+"/api/v1/hazver", "application/json",
		bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := Hazver.Call(ctx, c, api.HazverRequest{Source: "(not a design"}); err == nil {
		t.Error("unparsable source accepted")
	}
	if _, err := Hazver.Call(ctx, c, api.HazverRequest{Source: netlintTestSource, Mode: "fastest"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestHazverMetricsCounters: a completed synth job feeds the per-code
// hazver counters, visible in both the JSON metrics and the Prometheus
// text export, and the synth result carries the hazver report — here
// of a baseline arm whose hand-library controllers are all skipped.
func TestHazverMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Synth == nil || res.Synth.Hazver == nil {
		t.Fatal("synth result lacks the hazver report")
	}
	if hz := res.Synth.Hazver; hz.Errors != 0 || hz.Stats.Units != 0 || hz.Stats.Skipped != 2 {
		t.Errorf("synth hazver report unexpected: %+v", hz)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The post-mapping gate always records its HZ200 static report.
	if m.HazverDiags["HZ200"] == 0 {
		t.Fatalf("hazver diag counters missing HZ200: %+v", m.HazverDiags)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), `balsabmd_hazver_diags_total{code="HZ200"}`) {
		t.Errorf("/metrics lacks the hazver counter:\n%s", text)
	}
}

// The sources of the checked-arm tests: two controllers driving one
// channel, whose merged circuit fails netlint with NL001, and a mutex
// whose compiled spec fails bmlint with BM004.
const (
	twoDriverSource = `(program a (rep (enc-early (p-to-p passive go1) (p-to-p active x))))
(program b (rep (enc-early (p-to-p passive go2) (p-to-p active x))))`
	bm004Source = `(program m (rep (mutex (enc-early (p-to-p passive a) (p-to-p active x)) (enc-early (p-to-p passive a) (p-to-p active y)))))`
)

// TestCheckersAnswerFromCheckedArm: the netlint and hazver endpoints
// answer from the flow's checked arm. A merged circuit that fails
// netlint is a netlint finding (200) but fails hazver with the netlint
// gate's error (400); a spec that fails bmlint fails both with the
// bmlint gate's error.
func TestCheckersAnswerFromCheckedArm(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	const (
		nl001 = `netlint: twodrv.opt: net "x_r": error: NL001: net has 2 drivers`
		bm004 = "bmlint: bm004.unopt.m: state 0: error: BM004: "
	)
	for _, c := range []struct {
		checker, source, name, mode string
		status                      int
		want                        string // in the merged report (200) or the error (400)
	}{
		{"netlint", twoDriverSource, "twodrv", api.ModeOpt, http.StatusOK, "NL001"},
		{"hazver", twoDriverSource, "twodrv", api.ModeOpt, http.StatusBadRequest, nl001},
		{"netlint", bm004Source, "bm004", api.ModeUnopt, http.StatusBadRequest, bm004},
		{"hazver", bm004Source, "bm004", api.ModeUnopt, http.StatusBadRequest, bm004},
	} {
		body, err := json.Marshal(api.NetlintRequest{Source: c.source, Name: c.name, Mode: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Post(hs.URL+"/api/v1/"+c.checker, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		at := c.checker + " " + c.name + "." + c.mode
		if resp.StatusCode != c.status {
			t.Errorf("%s: HTTP %d, want %d: %s", at, resp.StatusCode, c.status, data)
			continue
		}
		if c.status == http.StatusOK {
			var res api.NetlintResultJSON
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			if m := res.Merged; m.Errors == 0 || len(m.Diags) == 0 || !strings.Contains(string(data), `"code": "`+c.want+`"`) {
				t.Errorf("%s: merged report lacks %s: %s", at, c.want, data)
			}
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.Error, c.want) {
			t.Errorf("%s: error %q, want it to start %q", at, e.Error, c.want)
		}
	}
}

// cancelAtPut is a controller cache that serves nothing and cancels its
// run when the n-th fresh synthesis is written back.
type cancelAtPut struct {
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAtPut) GetController(string) ([]byte, bool) { return nil, false }

func (c *cancelAtPut) PutController(string, []byte) {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
}

// TestRunSynthCancelledAtLastSynthesis: a synth job cancelled at its
// last fresh synthesis reaches the hazver gate with its context ended;
// it must fail with the context's error, not answer a result whose
// hazver report counts passes that never ran.
func TestRunSynthCancelledAtLastSynthesis(t *testing.T) {
	source := designs.SystolicCounter().Control().Format()
	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		req := api.JobRequest{Kind: api.KindSynth, Source: source, Mode: mode, Config: api.FlowConfig{Workers: 1}}
		cold := flow.NewMemoryControllerCache()
		if _, err := RunSynth(context.Background(), req, &flow.Metrics{}, cold); err != nil {
			t.Fatalf("%s: cold run: %v", mode, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ctl := &cancelAtPut{cancel: cancel}
		ctl.n.Store(int64(cold.Len()))
		res, err := RunSynth(ctx, req, &flow.Metrics{}, ctl)
		cancel()
		if ctl.n.Load() != 0 {
			t.Fatalf("%s: %d fresh syntheses left; the cancel never fired", mode, ctl.n.Load())
		}
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: RunSynth = %v, %v; want nil, context.Canceled", mode, res, err)
		}
	}
}
