package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
	"balsabm/internal/bmlint"
	"balsabm/internal/core"
	"balsabm/internal/flow"
	"balsabm/internal/techmap"
)

// Checker is one synchronous checker tier as every surface exposes it:
// the daemon serves POST /api/v1/<Name> by decoding a Req and answering
// Run's result, Call posts a Req from the Go client, and the balsabm
// CLI runs Run in process or Call against a daemon. Every path goes
// through the same Run and the shared api encoder, so all of them
// answer byte-identical bodies. Error-severity findings are reported,
// not failed: the report is the product.
type Checker[Req, Res any] struct {
	Name string
	Run  func(context.Context, Req) (Res, error)
}

// The checker tiers the daemon serves.
var (
	Lint    = Checker[api.LintRequest, *api.LintResultJSON]{Name: "lint", Run: RunLint}
	Bmlint  = Checker[api.BmlintRequest, *api.BmlintResultJSON]{Name: "bmlint", Run: RunBmlint}
	Netlint = Checker[api.NetlintRequest, *api.NetlintResultJSON]{Name: "netlint", Run: RunNetlint}
	Hazver  = Checker[api.HazverRequest, *api.HazverResultJSON]{Name: "hazver", Run: RunHazver}
)

func (c Checker[Req, Res]) path() string { return "/api/v1/" + c.Name }

// handle registers the checker's endpoint on mux: decode, run, answer.
// Checking is cheap enough to run synchronously, outside the job queue.
func (c Checker[Req, Res]) handle(mux *http.ServeMux) {
	mux.HandleFunc("POST "+c.path(), func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		res, err := c.Run(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
}

// Call runs the checker on the daemon behind cl.
func (c Checker[Req, Res]) Call(ctx context.Context, cl *Client, req Req) (Res, error) {
	var out Res
	if err := cl.do(ctx, http.MethodPost, c.path(), req, &out); err != nil {
		var zero Res
		return zero, err
	}
	return out, nil
}

// RunLint runs the chlint analyzer on submitted CH source: a netlist of
// (program ...) forms or a single bare expression. It never fails; a
// source that does not parse is itself a finding.
func RunLint(_ context.Context, req api.LintRequest) (*api.LintResultJSON, error) {
	return api.LintResult(req.File, analysis.LintSource(req.Source)), nil
}

// RunBmlint compiles a submitted design's components to Burst-Mode
// specifications and audits each with bmlint — or, for Format "bms",
// lints a single spec directly.
func RunBmlint(ctx context.Context, req api.BmlintRequest) (*api.BmlintResultJSON, error) {
	if req.Format == api.FormatBMS {
		if strings.TrimSpace(req.Source) == "" {
			return nil, fmt.Errorf("server: bmlint request has empty source")
		}
		res := bmlint.LintSource(req.Source)
		if res.Name == "" {
			res.Name = req.Name
		}
		return api.BmlintResult([]bmlint.Result{res}), nil
	}
	n, err := parseSource(api.JobRequest{Source: req.Source, Format: req.Format, Name: req.Name})
	if err != nil {
		return nil, err
	}
	specs, err := flow.BmlintNetlist(n)
	if err != nil {
		return nil, err
	}
	return api.BmlintResult(specs), nil
}

// RunNetlint synthesizes a submitted design without simulation in the
// requested arm and audits every mapped controller plus the merged
// circuit.
func RunNetlint(ctx context.Context, req api.NetlintRequest) (*api.NetlintResultJSON, error) {
	a, err := prepareArm(ctx, req)
	if err != nil {
		return nil, err
	}
	ctrls, merged, err := flow.NetlintNetlist(ctx, a.name, a.arm, a.n, a.mode, req.Config.Options(nil))
	if err != nil {
		return nil, err
	}
	return api.NetlintResult(a.arm, ctrls, merged), nil
}

// RunHazver synthesizes a submitted design without simulation in the
// requested arm and statically verifies the shipped logic of each
// distinct controller shape hazard-free on every specified burst by
// two-pass ternary evaluation (hand-library circuits are reported
// skipped).
func RunHazver(ctx context.Context, req api.HazverRequest) (*api.HazverResultJSON, error) {
	a, err := prepareArm(ctx, api.NetlintRequest(req))
	if err != nil {
		return nil, err
	}
	res, err := flow.HazverNetlist(ctx, a.name, a.arm, a.n, a.mode, req.Config.Options(nil))
	if err != nil {
		return nil, err
	}
	return api.HazverResult(a.arm, res), nil
}

// armSource is a submitted design readied for one arm: its control
// netlist (clustered for opt), design name, arm and mapping mode.
type armSource struct {
	n         *core.Netlist
	name, arm string
	mode      techmap.Mode
}

// prepareArm is the preparation RunNetlint and RunHazver share (their
// requests carry the same fields): parse the source, resolve the arm
// (default opt), default the design name, and cluster for the opt arm.
func prepareArm(ctx context.Context, req api.NetlintRequest) (*armSource, error) {
	n, err := parseSource(api.JobRequest{Source: req.Source, Format: req.Format, Name: req.Name})
	if err != nil {
		return nil, err
	}
	a := &armSource{name: req.Name}
	if a.arm, err = synthMode(req.Mode); err != nil {
		return nil, err
	}
	if a.name == "" {
		a.name = "design"
	}
	a.n, a.mode, err = flow.PrepareArm(ctx, n, a.arm, core.Options{MaxStates: req.Config.MaxStates, Workers: req.Config.Workers})
	if err != nil {
		return nil, err
	}
	return a, nil
}
