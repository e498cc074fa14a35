package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/store"
)

// marshalIndent is the encoding the pooled api encoder replaced:
// json.MarshalIndent with two-space indentation plus a newline.
func marshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// Every Table 3 synth result, in both arms, encodes through the pooled
// encoder to exactly the bytes MarshalIndent plus '\n' gives: the copy
// api.Encode returns and the lent bytes writeJSON and journalDone use.
func TestEncodeSynthResults(t *testing.T) {
	ctx := context.Background()
	for _, d := range designs.All() {
		for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
			req := api.JobRequest{Kind: api.KindSynth, Source: d.Control().Format(), Mode: mode}
			res, err := RunSynth(ctx, req, &flow.Metrics{}, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, mode, err)
			}
			want := marshalIndent(t, res)
			got, err := api.Encode(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: api.Encode differs from MarshalIndent", d.Name, mode)
			}
			if err := api.EncodeWith(res, func(b []byte) {
				if !bytes.Equal(b, want) {
					t.Errorf("%s/%s: api.EncodeWith differs from MarshalIndent", d.Name, mode)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The daemon's bodies are the same bytes: a done job's status and
// result and the metrics snapshot as served over HTTP, and the result
// blob journalDone stored.
func TestEncodeDaemonBodies(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, hs, c := newTestServer(t, Config{Workers: 1, Store: st})
	ctx := context.Background()
	sub, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: twoSequencers, Mode: api.ModeOpt})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != api.StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	j, ok := s.Manager().Get(sub.ID)
	if !ok {
		t.Fatalf("no job %s", sub.ID)
	}
	for path, v := range map[string]any{
		"/api/v1/jobs/" + j.ID:             j.Status(),
		"/api/v1/jobs/" + j.ID + "/result": j.Result(),
		"/api/v1/metrics":                  s.Manager().Metrics(),
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, content type %q", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if want := marshalIndent(t, v); !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from MarshalIndent:\n%s\nvs\n%s", path, body, want)
		}
	}
	blob, err := st.GetResult(j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalIndent(t, j.Result()); !bytes.Equal(blob, want) {
		t.Errorf("stored result differs from MarshalIndent:\n%s\nvs\n%s", blob, want)
	}
}
