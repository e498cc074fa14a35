package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"balsabm/internal/api"
)

// Client talks to a balsabmd daemon. It backs the CLI's -server mode,
// so a workstation CLI and a shared daemon present identical results.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:8337".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// NewClient builds a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out
// (skipped when out is nil). Non-2xx responses decode the server's
// error body into the returned error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("server: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(ctx context.Context, req api.JobRequest) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", req, &st)
	return st, err
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Wait long-polls until the job reaches a terminal state (or ctx
// ends).
func (c *Client) Wait(ctx context.Context, id string) (api.JobStatus, error) {
	for {
		var st api.JobStatus
		err := c.do(ctx, http.MethodGet,
			"/api/v1/jobs/"+url.PathEscape(id)+"?wait="+url.QueryEscape("30s"), nil, &st)
		if err != nil {
			return st, err
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Result fetches a finished job's result.
func (c *Client) Result(ctx context.Context, id string) (*api.JobResult, error) {
	var out api.JobResult
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id)+"/result", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+url.PathEscape(id), nil, nil)
}

// Metrics fetches the daemon counters.
func (c *Client) Metrics(ctx context.Context) (*api.MetricsJSON, error) {
	var out api.MetricsJSON
	if err := c.do(ctx, http.MethodGet, "/api/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Designs lists the daemon's built-in benchmark designs.
func (c *Client) Designs(ctx context.Context) ([]string, error) {
	var out []string
	if err := c.do(ctx, http.MethodGet, "/api/v1/designs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Run submits a job, waits for it, and returns its result. A failed
// or cancelled job returns the server-side error.
func (c *Client) Run(ctx context.Context, req api.JobRequest) (*api.JobResult, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if st.State != api.StateDone {
		if st.Error != "" {
			return nil, fmt.Errorf("server: job %s %s: %s", st.ID, st.State, st.Error)
		}
		return nil, fmt.Errorf("server: job %s %s", st.ID, st.State)
	}
	return c.Result(ctx, st.ID)
}
