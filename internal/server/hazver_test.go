package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"balsabm/internal/api"
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
		res, err := c.Hazver(ctx, api.HazverRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
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

	if _, err := c.Hazver(ctx, api.HazverRequest{Source: "(not a design"}); err == nil {
		t.Error("unparsable source accepted")
	}
	if _, err := c.Hazver(ctx, api.HazverRequest{Source: netlintTestSource, Mode: "fastest"}); err == nil {
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
