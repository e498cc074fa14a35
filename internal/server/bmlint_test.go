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

// A well-formed two-state handshake spec in .bms text form.
const bmlintTestSpec = `name pulse
input go 0
output done 0
0 1 go+ | done+
1 0 go- | done-
`

// TestBmlintEndpoint: POST /api/v1/bmlint compiles the design's
// components to Burst-Mode specs and answers one audit per spec, each
// with the BM200 static report filled in and zero BM-errors on
// chtobm-compiled output.
func TestBmlintEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := Bmlint.Call(ctx, c, api.BmlintRequest{Source: netlintTestSource, Name: "pair"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Specs) != 2 {
		t.Fatalf("spec reports = %d, want 2", len(res.Specs))
	}
	for _, rep := range res.Specs {
		if rep.Errors != 0 {
			t.Errorf("%s: compiled spec has %d BM-errors: %+v", rep.Spec, rep.Errors, rep.Diags)
		}
		if rep.Stats.States == 0 || rep.Stats.Budget == 0 {
			t.Errorf("%s: static report missing or empty: %+v", rep.Spec, rep.Stats)
		}
		if rep.Infos == 0 {
			t.Errorf("%s: no BM200 info diagnostic: %+v", rep.Spec, rep.Diags)
		}
	}
}

// TestBmlintEndpointBMS: Format "bms" lints the spec text directly,
// one report, no synthesis.
func TestBmlintEndpointBMS(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := Bmlint.Call(ctx, c, api.BmlintRequest{Source: bmlintTestSpec, Format: api.FormatBMS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Specs) != 1 || res.Specs[0].Spec != "pulse" {
		t.Fatalf("specs = %+v, want one report for pulse", res.Specs)
	}
	if res.Specs[0].Errors != 0 {
		t.Errorf("clean spec has BM-errors: %+v", res.Specs[0].Diags)
	}

	// An unparsable spec folds into a single BM000 error diagnostic —
	// the report is the product, so the request itself succeeds.
	res, err = Bmlint.Call(ctx, c, api.BmlintRequest{Source: "not a spec", Format: api.FormatBMS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Specs) != 1 || len(res.Specs[0].Diags) != 1 || res.Specs[0].Diags[0].Code != "BM000" {
		t.Fatalf("unparsable spec: %+v, want one BM000", res.Specs)
	}
}

// TestBmlintEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunBmlint(...)) — the same bytes
// `balsabm bmlint -json` prints locally.
func TestBmlintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	req := api.BmlintRequest{Source: netlintTestSource, Name: "pair"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/api/v1/bmlint", "application/json", bytes.NewReader(body))
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
	res, err := RunBmlint(context.Background(), req)
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

// TestBmlintEndpointRejects: unknown body fields, unparsable designs
// and empty .bms sources answer 400 with an error body.
func TestBmlintEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := hs.Client().Post(hs.URL+"/api/v1/bmlint", "application/json",
		bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := Bmlint.Call(ctx, c, api.BmlintRequest{Source: "(not a design"}); err == nil {
		t.Error("unparsable design accepted")
	}
	if _, err := Bmlint.Call(ctx, c, api.BmlintRequest{Source: "  ", Format: api.FormatBMS}); err == nil {
		t.Error("empty bms source accepted")
	}
}

// TestBmlintMetricsCounters: a completed job feeds the per-code bmlint
// counters (the gate's BM200 reports at minimum), visible in both the
// JSON metrics and the Prometheus text export.
func TestBmlintMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The post-compile gate always records one BM200 report per spec.
	if m.BmlintDiags["BM200"] == 0 {
		t.Fatalf("bmlint diag counters missing BM200: %+v", m.BmlintDiags)
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
	if !strings.Contains(string(text), `balsabmd_bmlint_diags_total{code="BM200"}`) {
		t.Errorf("/metrics lacks the bmlint counter:\n%s", text)
	}
}
