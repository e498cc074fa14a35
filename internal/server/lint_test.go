package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
	"balsabm/internal/ch"
	"balsabm/internal/flow"
)

// TestLintEndpointByteIdentity: for every examples/lint corpus file,
// the raw POST /api/v1/lint response body must be byte-identical to
// what `balsabm lint -json <file>` prints — both are
// api.Encode(api.LintResult(file, LintSource(src))).
func TestLintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	files, err := filepath.Glob("../../examples/lint/*.ch")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(api.LintRequest{Source: string(src), File: file})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Post(hs.URL+"/api/v1/lint", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", filepath.Base(file), resp.StatusCode, remote)
		}
		local, err := api.Encode(api.LintResult(file, analysis.LintSource(string(src))))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(remote, local) {
			t.Errorf("%s: server and CLI bytes differ:\n--- server ---\n%s--- cli ---\n%s",
				filepath.Base(file), remote, local)
		}
	}
}

// TestLintEndpointCounts: the acceptance-criterion program (three
// Table 1 violations) answers three errors with positions over the
// wire.
func TestLintEndpointCounts(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	src, err := os.ReadFile("../../examples/lint/table1.ch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lint.Call(context.Background(), c, api.LintRequest{Source: string(src), File: "table1.ch"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 3 || len(res.Diags) != 3 {
		t.Fatalf("want 3 errors, got %d (%d diags)", res.Errors, len(res.Diags))
	}
	wantLines := []int{5, 6, 7}
	for i, d := range res.Diags {
		if d.Code != "CH001" || d.Line != wantLines[i] || d.Col != 3 {
			t.Errorf("diag %d: %s at %d:%d, want CH001 at %d:3", i, d.Code, d.Line, d.Col, wantLines[i])
		}
	}
	// Malformed body: 400.
	resp, err := hs.Client().Post(hs.URL+"/api/v1/lint", "application/json", bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSynthJobLintGate: a synth job whose netlist fails lint must fail
// before synthesis, with the analyzer's findings in the job error, and
// a job with warnings must surface them as "lint" SSE events.
func TestSynthJobLintGate(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// "up" is driven from both ends: CH010, error severity.
	broken := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))
`
	_, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: broken, Mode: api.ModeUnopt})
	if err == nil {
		t.Fatal("want lint failure, got success")
	}
	if !contains(err.Error(), "CH010") {
		t.Fatalf("error does not carry the lint code: %v", err)
	}
}

// TestRunSynthRejectsDuplicateNames: two components named "a" fail
// the lint gate with CH014 in both modes, where the opt arm once
// clustered the netlist down to 1 controller instead of 2.
func TestRunSynthRejectsDuplicateNames(t *testing.T) {
	src, err := os.ReadFile("../../examples/lint/duplicate.ch")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{api.ModeOpt, api.ModeUnopt} {
		_, err := RunSynth(context.Background(), api.JobRequest{Kind: api.KindSynth, Source: string(src), Mode: mode}, &flow.Metrics{}, nil)
		var ge *flow.GateError[ch.Pos]
		if !errors.As(err, &ge) || ge.Tier != flow.TierLint || !contains(err.Error(), `CH014: two components named "a"`) {
			t.Errorf("mode %s: got %v, want the lint gate's CH014 error", mode, err)
		}
	}
}

// TestRunSynthCallFragmentNames: a component named like a call
// fragment ("c#1" beside a 2-way call c) passes the lint gate and
// synthesizes in opt mode, where the arm once failed with two
// components named "c#1".
func TestRunSynthCallFragmentNames(t *testing.T) {
	const src = `
(program caller (rep (enc-early (p-to-p passive go) (p-to-p active act))))
(program c (rep (mutex (enc-early (p-to-p passive act) (p-to-p active x)) (enc-early (p-to-p passive c2) (p-to-p active x)))))
(program user (rep (enc-early (p-to-p passive x) (p-to-p active out))))
(program c#1 (rep (enc-early (p-to-p passive go3) (p-to-p active c2))))`
	res, err := RunSynth(context.Background(), api.JobRequest{Kind: api.KindSynth, Source: src, Mode: api.ModeOpt}, &flow.Metrics{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Synth.Controllers); n != 3 {
		t.Errorf("opt arm shipped %d controllers, want 3", n)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

// TestLintWarningsStreamAsEvents: non-error findings from the gate
// appear as "lint" SSE events on the job's progress stream, and the
// job still completes.
func TestLintWarningsStreamAsEvents(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Two components sharing no channel: CH013 warnings, no errors.
	disconnected := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active out_a))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active out_b))))
`
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: disconnected, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job state %s (%s), want done", final.State, final.Error)
	}

	reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet,
		hs.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lints []api.DiagJSON
	var netlints []api.NetlintDiagJSON
	var bmlints []api.BmlintDiagJSON
	var hazvers []api.HazverDiagJSON
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Type == "lint" {
			switch {
			case ev.Lint != nil:
				lints = append(lints, *ev.Lint)
			case ev.Netlint != nil:
				netlints = append(netlints, *ev.Netlint)
			case ev.Bmlint != nil:
				bmlints = append(bmlints, *ev.Bmlint)
			case ev.Hazver != nil:
				hazvers = append(hazvers, *ev.Hazver)
			default:
				t.Fatalf("lint event without payload: %+v", ev)
			}
		}
	}
	if len(lints) != 2 {
		t.Fatalf("want 2 lint events (CH013 per component), got %d: %+v", len(lints), lints)
	}
	for _, d := range lints {
		if d.Code != "CH013" || d.Severity != "warning" {
			t.Errorf("unexpected lint event %+v", d)
		}
	}
	// The post-merge netlint gate streams its findings on the same
	// event type; at minimum the NL200 static report of the merged
	// circuit must have arrived, tagged with the audited circuit.
	found := false
	for _, d := range netlints {
		if d.Code == "NL200" && d.Circuit == "synth.unopt" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing NL200 netlint event for synth.unopt: %+v", netlints)
	}
	// The post-compile bmlint gate streams its findings there too: one
	// BM200 static report per compiled spec, tagged with the audited
	// spec ("design.arm.component").
	for _, spec := range []string{"synth.unopt.a", "synth.unopt.b"} {
		found := false
		for _, d := range bmlints {
			if d.Code == "BM200" && d.Spec == spec {
				found = true
			}
		}
		if !found {
			t.Errorf("missing BM200 bmlint event for %s: %+v", spec, bmlints)
		}
	}
	// The post-mapping hazver gate streams its findings there too: the
	// HZ200 static report of the verified circuit.
	found = false
	for _, d := range hazvers {
		if d.Code == "HZ200" && d.Circuit == "synth.unopt" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing HZ200 hazver event for synth.unopt: %+v", hazvers)
	}
}
