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

// A two-component design small enough to synthesize in a test but with
// real structure (sequencing plus an internal channel).
const netlintTestSource = `
(program a (rep (enc-early (p-to-p passive go) (seq (p-to-p active mid) (p-to-p active out)))))
(program b (rep (enc-early (p-to-p passive mid) (p-to-p active done))))
`

// TestNetlintEndpoint: POST /api/v1/netlint synthesizes the design and
// answers per-controller reports plus the merged circuit, with the
// static area/depth block filled in and zero NL-errors on flow output.
func TestNetlintEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		res, err := Netlint.Call(ctx, c, api.NetlintRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("mode %q, want %q", res.Mode, mode)
		}
		if len(res.Controllers) == 0 {
			t.Fatalf("%s: no controller reports", mode)
		}
		for _, rep := range res.Controllers {
			if !strings.HasPrefix(rep.Circuit, "pair."+mode+".") {
				t.Errorf("controller circuit %q lacks the pair.%s. prefix", rep.Circuit, mode)
			}
			if rep.Errors != 0 {
				t.Errorf("%s: flow-emitted controller has %d NL-errors: %+v", rep.Circuit, rep.Errors, rep.Diags)
			}
		}
		m := res.Merged
		if m.Circuit != "pair."+mode {
			t.Errorf("merged circuit %q, want pair.%s", m.Circuit, mode)
		}
		if m.Errors != 0 {
			t.Errorf("merged circuit has %d NL-errors: %+v", m.Errors, m.Diags)
		}
		if m.Static.Cells == 0 || m.Static.Area <= 0 {
			t.Errorf("merged static report missing or empty: %+v", m.Static)
		}
	}
}

// TestNetlintEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunNetlint(...)) — the same bytes
// `balsabm netlint -json` prints locally.
func TestNetlintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	req := api.NetlintRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/api/v1/netlint", "application/json", bytes.NewReader(body))
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
	res, err := RunNetlint(context.Background(), req)
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

// TestNetlintEndpointRejects: unknown body fields, unparsable sources
// and unknown modes answer 400 with an error body.
func TestNetlintEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := hs.Client().Post(hs.URL+"/api/v1/netlint", "application/json",
		bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := Netlint.Call(ctx, c, api.NetlintRequest{Source: "(not a design"}); err == nil {
		t.Error("unparsable source accepted")
	}
	if _, err := Netlint.Call(ctx, c, api.NetlintRequest{Source: netlintTestSource, Mode: "fastest"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestNetlintMetricsCounters: a completed synth job feeds the per-code
// netlint counters, visible in both the JSON metrics and the
// Prometheus text export.
func TestNetlintMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The merged-circuit gate always records its NL200 static report.
	if m.NetlintDiags["NL200"] == 0 {
		t.Fatalf("netlint diag counters missing NL200: %+v", m.NetlintDiags)
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
	if !strings.Contains(string(text), `balsabmd_netlint_diags_total{code="NL200"}`) {
		t.Errorf("/metrics lacks the netlint counter:\n%s", text)
	}
}
