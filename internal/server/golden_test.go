package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"balsabm/internal/api"
)

var updateGoldens = flag.Bool("update", false, "rewrite the goldens in testdata/")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestPrometheusTextGolden pins the whole /metrics exposition of a fixed
// counter snapshot, with codes in every per-tier diagnostic map.
func TestPrometheusTextGolden(t *testing.T) {
	m := &api.MetricsJSON{
		JobsByState: map[string]int64{
			api.StateQueued: 1, api.StateRunning: 2, api.StateDone: 3,
			api.StateFailed: 4, api.StateCanceled: 5,
		},
		QueueDepth: 6, DedupHits: 7, DedupMisses: 8,
		FlowCacheHits: 9, FlowCacheMisses: 10,
		MinimizeExact: 11, MinimizeGreedy: 12, EnumNodes: 13, BranchNodes: 14,
		Stages: map[string]api.StageJSON{
			"compile": {Count: 15, TotalMicros: 1600},
			"netlint": {Count: 17, TotalMicros: 1800000},
		},
		StoreDiskHits: 19, StoreMemHits: 20, StoreMisses: 21, JobsResumed: 22,
		CheckpointsSaved: 23, CheckpointsRestored: 24,
		ControllersReused: 25, ControllersResynthesized: 26, ControllersCorrupt: 27,
		Store: &api.StoreStatsJSON{
			Artifacts: 28, ArtifactBytes: 29, Refs: 30, ControllerRefs: 31,
			Checkpoints: 32, Corrupt: 33,
		},
		NetlintDiags: map[string]int64{"NL200": 34, "NL100": 35, "NL001": 36},
		BmlintDiags:  map[string]int64{"BM200": 37, "BM103": 38},
		HazverDiags:  map[string]int64{"HZ200": 39, "HZ001": 40},
	}
	checkGolden(t, "metrics.prom", PrometheusText(m))
}

// TestLintEventsGolden pins the ordered "lint" SSE events of one synth
// job whose findings span all four checker tiers: each event's tier and
// its diagnostic payload (which names the spec or circuit it is about).
func TestLintEventsGolden(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Two components sharing no channel: CH013 warnings, no errors.
	disconnected := `
(program a (rep (enc-early (p-to-p passive go_a) (seq (p-to-p active x_a) (p-to-p active y_a)))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active out_b))))
`
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: disconnected, Mode: api.ModeOpt})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != api.StateDone {
		t.Fatalf("job %s: state %s (%s), err %v", st.ID, st.State, st.Error, err)
	}

	reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet, hs.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tiers := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Type != "lint" {
			continue
		}
		var tier string
		var payload any
		switch {
		case ev.Lint != nil:
			tier, payload = "lint", ev.Lint
		case ev.Bmlint != nil:
			tier, payload = "bmlint", ev.Bmlint
		case ev.Netlint != nil:
			tier, payload = "netlint", ev.Netlint
		case ev.Hazver != nil:
			tier, payload = "hazver", ev.Hazver
		default:
			t.Fatalf("lint event without payload: %+v", ev)
		}
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		tiers[tier] = true
		fmt.Fprintf(&sb, "%s %s\n", tier, b)
	}
	if len(tiers) != 4 {
		t.Errorf("events span tiers %v, want all four", tiers)
	}
	checkGolden(t, "lint-events.golden", sb.String())
}
