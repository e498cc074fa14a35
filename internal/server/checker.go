package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
	"balsabm/internal/bmlint"
	"balsabm/internal/cell"
	"balsabm/internal/flow"
)

// Checker is one synchronous checker tier as every surface exposes it:
// the daemon serves POST /api/v1/<Name> by decoding a Req and answering
// Run's result, Call posts a Req from the Go client, and the balsabm
// CLI runs Run in process or Call against a daemon. Every path goes
// through the same Run and the shared api encoder, so all of them
// answer byte-identical bodies. A tier's own error-severity findings
// are reported, not failed: the report is the product. The netlint and
// hazver tiers answer from the flow's checked arm
// (flow.SynthesizeCheckedCtx), so a gate that arm passes through before
// theirs — bmlint for both, netlint for hazver — fails the request
// with its error, as it would fail the flow.
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
// specifications as written (the unopt arm) and audits each with
// bmlint — or, for Format "bms", lints a single spec directly. It
// synthesizes nothing.
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
	specs, err := flow.BmlintNetlist(ctx, api.ModeUnopt, n, nil)
	if err != nil {
		return nil, err
	}
	return api.BmlintResult(specs), nil
}

// RunNetlint runs a submitted design's checked arm (no simulation) in
// the requested arm and answers its netlint tier (see NetlintArm).
func RunNetlint(ctx context.Context, req api.NetlintRequest) (*api.NetlintResultJSON, error) {
	c, name, arm, err := checkArm(ctx, req)
	return NetlintArm(name, arm, c, err)
}

// RunHazver runs a submitted design's checked arm (no simulation) in
// the requested arm and answers its hazver tier (see HazverArm): the
// shipped logic of each distinct controller shape statically verified
// hazard-free on every specified burst by two-pass ternary evaluation,
// hand-library circuits reported skipped.
func RunHazver(ctx context.Context, req api.HazverRequest) (*api.HazverResultJSON, error) {
	c, _, arm, err := checkArm(ctx, api.NetlintRequest(req))
	return HazverArm(arm, c, err)
}

// NetlintArm is the netlint checker's answer from a checked arm and its
// error, as flow.SynthesizeCheckedCtx returns them: every mapped
// controller's audit, named "<design>.<arm>.<controller>", plus the
// merged circuit's, whenever the arm got as far as mapping — so a
// failing netlint or hazver gate still reports the netlint rows.
// Otherwise it answers the arm's error.
func NetlintArm(design, arm string, c *flow.CheckedArm, err error) (*api.NetlintResultJSON, error) {
	if c == nil || c.Mapped == nil {
		return nil, err
	}
	return api.NetlintResult(arm, flow.NetlintControllers(design, arm, c.Mapped, cell.AMS035()), c.Netlint), nil
}

// HazverArm is the hazver checker's answer from a checked arm and its
// error: the arm's hazver report whenever the hazver gate ran, failing
// or not. Otherwise — an earlier gate failed, or the run broke or was
// cancelled — it answers the arm's error.
func HazverArm(arm string, c *flow.CheckedArm, err error) (*api.HazverResultJSON, error) {
	if c == nil || c.Hazver.Name == "" {
		return nil, err
	}
	return api.HazverResult(arm, c.Hazver), nil
}

// checkArm is the checked arm RunNetlint and RunHazver answer from
// (their requests carry the same fields): parse the source, resolve the
// arm (default opt) and the design name (default "design"), and run
// flow.SynthesizeCheckedCtx, whose results it passes through.
func checkArm(ctx context.Context, req api.NetlintRequest) (c *flow.CheckedArm, name, arm string, err error) {
	n, err := parseSource(api.JobRequest{Source: req.Source, Format: req.Format, Name: req.Name})
	if err != nil {
		return nil, "", "", err
	}
	if arm, err = synthMode(req.Mode); err != nil {
		return nil, "", "", err
	}
	name = req.Name
	if name == "" {
		name = "design"
	}
	c, err = flow.SynthesizeCheckedCtx(ctx, name, arm, n, req.Config.Options(nil))
	return c, name, arm, err
}
