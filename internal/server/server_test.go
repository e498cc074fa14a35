package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"balsabm/internal/api"
)

// twoSequencers is a small CH control netlist: a sequencer activating
// a second sequencer over channel l1.
const twoSequencers = `
(program seq_a (rep (enc-early (p-to-p passive root)
    (seq (p-to-p active l1) (p-to-p active l2)))))
(program seq_b (rep (enc-early (p-to-p passive l1)
    (seq (p-to-p active x1) (p-to-p active x2)))))
`

// twoSequencersReformatted is the same netlist with different
// whitespace; it must dedup against twoSequencers.
const twoSequencersReformatted = `
(program seq_a
  (rep (enc-early (p-to-p passive root) (seq (p-to-p active l1) (p-to-p active l2)))))
(program seq_b
  (rep (enc-early (p-to-p passive l1) (seq (p-to-p active x1) (p-to-p active x2)))))
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	c := NewClient(hs.URL)
	c.HTTP = hs.Client()
	return s, hs, c
}

func TestSubmitValidation(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	cases := []api.JobRequest{
		{Kind: "bogus"},
		{Kind: api.KindDesign, Design: "no-such-design"},
		{Kind: api.KindSynth, Source: ""},
		{Kind: api.KindSynth, Source: "(not a program"},
		{Kind: api.KindSynth, Source: twoSequencers, Mode: "sideways"},
		{Kind: api.KindSynth, Source: twoSequencers, Format: "vhdl"},
	}
	for _, req := range cases {
		if _, err := c.Submit(ctx, req); err == nil {
			t.Errorf("Submit(%+v) succeeded, want validation error", req)
		}
	}

	// Unknown JSON fields are rejected too.
	resp, err := hs.Client().Post(hs.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"table3","bogusField":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestNotFoundAndHealth(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Status(ctx, "j99999"); err == nil {
		t.Error("Status of unknown job succeeded, want 404 error")
	}
	if _, err := c.Result(ctx, "j99999"); err == nil {
		t.Error("Result of unknown job succeeded, want 404 error")
	}
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

func TestDesignsEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	names, err := c.Designs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"systolic-counter", "wagging-register", "stack", "ssem"}
	if len(names) != len(want) {
		t.Fatalf("designs = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("designs = %v, want %v", names, want)
		}
	}
}

// testManagerNoWorkers builds a manager whose queue nobody drains, so
// queue and cancellation behavior is deterministic.
func testManagerNoWorkers(queueDepth int) *Manager {
	cfg := Config{QueueDepth: queueDepth}.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, queueDepth),
		jobs:   map[string]*Job{},
	}
}

func TestQueueFull(t *testing.T) {
	m := testManagerNoWorkers(1)
	defer m.cancel()
	req := api.JobRequest{Kind: api.KindSynth, Source: twoSequencers}
	if _, err := m.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit error = %v, want ErrQueueFull", err)
	}
	if got := m.QueueDepth(); got != 1 {
		t.Fatalf("queue depth = %d, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := testManagerNoWorkers(4)
	defer m.cancel()
	j, err := m.Submit(api.JobRequest{Kind: api.KindSynth, Source: twoSequencers})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(j.ID) {
		t.Fatal("Cancel returned false for existing job")
	}
	st := j.Status()
	if st.State != api.StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed after cancellation")
	}
	if m.Metrics().JobsByState[api.StateCanceled] != 1 {
		t.Fatal("metrics do not count the canceled job")
	}
}

func TestSynthJobLifecycleAndDedup(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencers, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateQueued && st.State != api.StateRunning {
		t.Fatalf("initial state = %s", st.State)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Dedup {
		t.Fatalf("first job: state=%s dedup=%v, want done/false", st.State, st.Dedup)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != api.KindSynth || res.Synth == nil || len(res.Synth.Controllers) != 2 {
		t.Fatalf("unexpected synth result: %+v", res)
	}
	for _, sc := range res.Synth.Controllers {
		if !strings.Contains(sc.Verilog, "module") {
			t.Fatalf("controller %s: no Verilog emitted", sc.Controller.Name)
		}
	}

	// The reformatted source canonicalizes to the same key: dedup hit.
	st2, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencersReformatted, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Key != st.Key {
		t.Fatalf("reformatted source got key %s, want %s", st2.Key, st.Key)
	}
	st2, err = c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != api.StateDone || !st2.Dedup {
		t.Fatalf("duplicate job: state=%s dedup=%v, want done/true", st2.State, st2.Dedup)
	}
	res2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := api.Encode(res)
	b2, _ := api.Encode(res2)
	if string(b1) != string(b2) {
		t.Fatal("dedup-served result differs from the original")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DedupHits != 1 || m.DedupMisses != 1 {
		t.Fatalf("dedup counters hits=%d misses=%d, want 1/1", m.DedupHits, m.DedupMisses)
	}
}

func TestEventsStream(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencers, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// The stream of a finished job replays its whole history and ends.
	reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet,
		hs.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	var states []string
	var sawStage bool
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "stage":
			sawStage = true
			if ev.Stage == "" || ev.Count <= 0 {
				t.Fatalf("malformed stage event: %+v", ev)
			}
		}
	}
	wantStates := []string{api.StateQueued, api.StateRunning, api.StateDone}
	if len(states) != len(wantStates) {
		t.Fatalf("state events %v, want %v", states, wantStates)
	}
	for i := range wantStates {
		if states[i] != wantStates[i] {
			t.Fatalf("state events %v, want %v", states, wantStates)
		}
	}
	if !sawStage {
		t.Fatal("no stage progress events in stream")
	}
}

func TestMetricsTextFormat(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencers, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
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
	body := buf.String()
	for _, want := range []string{
		`balsabmd_jobs_total{state="done"} 1`,
		"balsabmd_queue_depth 0",
		"balsabmd_dedup_misses_total 1",
		`balsabmd_stage_runs_total{stage="compile"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestSkipAuditAcceptedAndIgnored: older clients still send
// "config":{"skipAudit":true}. The daemon accepts the field and ignores
// it — the flow has no mapped-logic audit left to skip. A job carrying
// it dedupes against the same job without it, and a netlint request
// answers the same bytes either way.
func TestSkipAuditAcceptedAndIgnored(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	post := func(path, body string, want int) []byte {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: HTTP %d, want %d: %s", path, resp.StatusCode, want, out)
		}
		return out
	}
	src, err := json.Marshal(twoSequencers)
	if err != nil {
		t.Fatal(err)
	}

	plain := post("/api/v1/netlint", `{"source":`+string(src)+`,"name":"pair"}`, http.StatusOK)
	skip := post("/api/v1/netlint", `{"source":`+string(src)+`,"name":"pair","config":{"skipAudit":true}}`, http.StatusOK)
	if string(plain) != string(skip) {
		t.Fatalf("netlint answer changed with skipAudit:\n%s\n%s", plain, skip)
	}

	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencers})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != api.StateDone {
		t.Fatalf("plain job: %+v, %v", st, err)
	}
	var st2 api.JobStatus
	if err := json.Unmarshal(post("/api/v1/jobs", `{"kind":"synth","source":`+string(src)+`,"config":{"skipAudit":true}}`, http.StatusAccepted), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Key != st.Key {
		t.Fatalf("skipAudit changed the dedup key: %s vs %s", st2.Key, st.Key)
	}
	if st2, err = c.Wait(ctx, st2.ID); err != nil || st2.State != api.StateDone || !st2.Dedup {
		t.Fatalf("skipAudit job: %+v, %v; want done and deduplicated", st2, err)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := api.Encode(res)
	b2, _ := api.Encode(res2)
	if string(b1) != string(b2) {
		t.Fatal("skipAudit job answered different bytes")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DedupHits != 1 {
		t.Fatalf("balsabmd_dedup_hits_total = %d, want 1", m.DedupHits)
	}
}
