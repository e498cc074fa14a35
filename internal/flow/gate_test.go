package flow

import (
	"testing"

	"balsabm/internal/netlint"
)

// TestGateErrorText pins a gate failure's text per tier, for one error
// finding and for several: job errors, logs and the daemon's failed-job
// bodies carry it verbatim.
func TestGateErrorText(t *testing.T) {
	one := []netlint.Diag{{Loc: netlint.NoLoc, Severity: netlint.SevError, Code: "NL001", Message: "one"}}
	two := append(one, netlint.Diag{Loc: netlint.NoLoc, Severity: netlint.SevError, Code: "NL002", Message: "two"})
	opt := Site{Design: "stack", Arm: "opt"}
	cases := []struct {
		tier string
		at   Site
		want string
	}{
		{TierLint, Site{Design: "stack"}, "lint: stack: control netlist fails lint:"},
		{TierBmlint, Site{Design: "stack", Arm: "opt", Spec: "push"}, "bmlint: stack.opt.push: compiled spec fails bmlint:"},
		{TierNetlint, opt, "netlint: stack.opt: merged circuit fails netlint:"},
		{TierHazver, opt, "hazver: stack.opt: static hazard verification failed:"},
	}
	for _, c := range cases {
		e := &GateError[netlint.Loc]{Tier: c.tier, Site: c.at, Diags: two}
		if got, want := e.Error(), c.want+"\n\terror: NL001: one\n\terror: NL002: two"; got != want {
			t.Errorf("%s: %q, want %q", c.tier, got, want)
		}
		e.Diags = one
		if got, want := e.Error(), c.tier+": "+c.at.Unit()+": error: NL001: one"; got != want {
			t.Errorf("%s: %q, want %q", c.tier, got, want)
		}
	}
}
