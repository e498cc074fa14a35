package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/dpath"
	"balsabm/internal/flow"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hclib"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/parallel"
	"balsabm/internal/server"
	"balsabm/internal/sim"
	"balsabm/internal/techmap"
)

// Simulation bounds of the flow's defaults (flow.Options.TimeLimit and
// EventLimit).
const (
	simTimeLimit  = 5e6
	simEventLimit = 100_000_000
)

// replayer re-runs a workload's ops the way the flow runs them, but
// sequentially and through each module's public functions, with a
// span around every call. Its results must equal the flow's; the
// replay-fidelity test and the per-op digest checks hold it to that.
type replayer struct {
	tr   *tracer
	lib  *cell.Library
	pool *parallel.Pool
	// memo is the flow's canonical-form synthesis memo, one per op.
	memo map[string]*entry
	// ctl stands in for the daemon's controller tier in the edit loop:
	// shapes synthesized by earlier ops of the run. Nil elsewhere.
	ctl map[string]*entry
	met *flow.Metrics // gate findings of the current op
	// storeBytes is the daemon store's artifact size after the last edit.
	storeBytes int64
}

// entry is one synthesized controller shape, as the seeding component
// named its wires.
type entry struct {
	wires []string
	nl    *gates.Netlist
	res   flow.ControllerResult
	unit  *hazver.Unit // nil for hand-library circuits
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, lib: cell.AMS035(), pool: parallel.NewPool(1)}
}

// startOp gives an op a fresh memo and findings sink.
func (rp *replayer) startOp() {
	rp.memo = map[string]*entry{}
	rp.met = &flow.Metrics{}
}

// table3 replays flow.RunAllCtx: the four designs in order, sharing one
// memo, then checks the results against the pinned digests.
func (rp *replayer) table3(ctx context.Context, want map[string]string) (float64, error) {
	rp.startOp()
	var rs []*flow.DesignResult
	for _, d := range designs.All() {
		r, err := rp.design(ctx, d)
		if err != nil {
			return 0, fmt.Errorf("flow: %s: %w", d.Name, err)
		}
		rs = append(rs, r)
	}
	return checkTable3(rs, want)
}

// design replays flow's runDesign: the lint gate, then the unoptimized
// and the optimized arm one after the other.
func (rp *replayer) design(ctx context.Context, d *designs.Design) (*flow.DesignResult, error) {
	rp.tr.design, rp.tr.arm, rp.tr.component = d.Name, "", ""
	n := d.Control()
	if err := rp.tr.span("analysis", func() error { return flow.LintNetlist(n, d.Name, rp.met) }); err != nil {
		return nil, err
	}
	res := &flow.DesignResult{Design: d.Name}
	var err error
	if res.Unopt, res.Bench, err = rp.arm(ctx, d, "unopt", n, techmap.AreaShared); err != nil {
		return nil, fmt.Errorf("unoptimized arm: %w", err)
	}
	rp.tr.arm, rp.tr.component = "opt", ""
	var clustered *core.Netlist
	err = rp.tr.span("core", func() error {
		var err error
		clustered, res.Report, err = core.OptimizeOpt(n, core.Options{Pool: rp.pool, Ctx: ctx})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("clustering: %w", err)
	}
	rp.countClustering(res.Report)
	if res.Opt, _, err = rp.arm(ctx, d, "opt", clustered, techmap.SpeedSplit); err != nil {
		return nil, fmt.Errorf("optimized arm: %w", err)
	}
	return res, nil
}

// arm replays one flow arm after clustering: the checked synthesis and
// the benchmark simulation.
func (rp *replayer) arm(ctx context.Context, d *designs.Design, arm string, n *core.Netlist, mode techmap.Mode) (flow.ArmResult, string, error) {
	var a flow.ArmResult
	c, err := rp.checkedSynthesis(ctx, d.Name, arm, n, mode)
	if err != nil {
		return a, "", err
	}
	a.Controllers, a.Static = c.ctrls, c.netlint.Stats
	for _, ctl := range a.Controllers {
		a.ControlArea += ctl.Area
	}
	var desc string
	err = rp.tr.span("sim", func() error {
		var err error
		a.BenchTime, a.DatapathArea, a.Events, desc, err = simulate(ctx, d, c.mapped, rp.lib)
		return err
	})
	rp.tr.add("sim.events", float64(a.Events))
	return a, desc, err
}

// checked is the outcome of checkedSynthesis.
type checked struct {
	mapped  []*gates.Netlist
	ctrls   []flow.ControllerResult
	netlint netlint.Result
	hazver  hazver.Result
}

// checkedSynthesis replays the part of an arm that the flow and the
// synth executor share: the bmlint gate, synthesis of every component,
// the netlint gate, the hazver gate as shipped, and hazver.Audit on the
// replay's own controllers.
func (rp *replayer) checkedSynthesis(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode) (*checked, error) {
	rp.tr.arm, rp.tr.component = arm, ""
	if err := rp.tr.span("bmlint", func() error {
		_, err := flow.BmlintGate(design, arm, n, rp.met)
		return err
	}); err != nil {
		return nil, err
	}
	c := &checked{}
	var units []hazver.Unit
	var err error
	if c.mapped, c.ctrls, units, err = rp.synthesize(ctx, n, mode); err != nil {
		return nil, err
	}
	rp.tr.component = ""
	if err := rp.tr.span("netlint", func() error {
		var err error
		c.netlint, err = flow.NetlintGate(design, arm, c.mapped, rp.lib, rp.met)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rp.tr.span("hazver.gate", func() error {
		var err error
		c.hazver, err = flow.HazverGate(ctx, design, arm, n, mode, &flow.Options{Workers: 1, Metrics: rp.met})
		return err
	}); err != nil {
		return nil, err
	}
	if err := rp.tr.span("hazver.audit", func() error {
		name := design + "." + arm
		res := hazver.Audit(name, units, rp.lib, hazver.Options{Pool: rp.pool, Ctx: ctx})
		if hazver.HasErrors(res.Diags) {
			return fmt.Errorf("hazver: %s", hazver.Format(res.Diags, name))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// synth replays server.RunSynth in the paper's arm and assembles the
// same result the executor returns.
func (rp *replayer) synth(ctx context.Context, src string) (*api.JobResult, error) {
	rp.startOp()
	rp.tr.arm, rp.tr.component = "", ""
	var n *core.Netlist
	if err := rp.tr.span("ch.parse", func() error {
		var err error
		n, err = core.ParseNetlist(src)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rp.tr.span("analysis", func() error { return flow.LintNetlist(n, "submitted", rp.met) }); err != nil {
		return nil, err
	}
	rp.tr.arm = api.ModeOpt
	var rep *core.Report
	if err := rp.tr.span("core", func() error {
		var err error
		n, rep, err = core.OptimizeOpt(n, core.Options{Workers: 1, Ctx: ctx})
		return err
	}); err != nil {
		return nil, err
	}
	rp.countClustering(rep)
	c, err := rp.checkedSynthesis(ctx, "synth", api.ModeOpt, n, techmap.SpeedSplit)
	if err != nil {
		return nil, err
	}
	nl, hz := api.NetlintReport(c.netlint), api.HazverReport(c.hazver)
	out := &api.SynthResultJSON{Mode: api.ModeOpt, Report: api.FromReport(rep), Netlint: &nl, Hazver: &hz}
	err = rp.tr.span("techmap.verilog", func() error {
		for i, nl := range c.mapped {
			out.Controllers = append(out.Controllers, api.SynthControllerJSON{
				Controller: api.FromControllerResult(c.ctrls[i]),
				Verilog:    techmap.VerilogModules(nl, rp.lib),
			})
		}
		return nil
	})
	return &api.JobResult{Kind: api.KindSynth, Synth: out}, err
}

// edit runs one edit-loop op against the daemon with a span around
// each client call, then replays the same edit in process against the
// replay's controller tier.
func (rp *replayer) edit(ctx context.Context, c *server.Client, req api.JobRequest, want string) (float64, error) {
	rp.tr.arm, rp.tr.component = "", ""
	var st api.JobStatus
	var res *api.JobResult
	err := rp.tr.span("server.submit", func() error {
		var err error
		st, err = c.Submit(ctx, req)
		return err
	})
	if err == nil {
		err = rp.tr.span("server.wait", func() error {
			var err error
			st, err = c.Wait(ctx, st.ID)
			if err == nil && st.State != api.StateDone {
				err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
			return err
		})
	}
	if err == nil {
		err = rp.tr.span("server.result", func() error {
			var err error
			res, err = c.Result(ctx, st.ID)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	replayed, err := rp.synth(ctx, req.Source)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	if _, _, err := checkSynth(replayed, want); err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	area, size, err := checkSynth(res, want)
	if err != nil {
		return 0, err
	}
	rp.tr.add("api.result_kb", float64(size)/1000)
	rp.tr.add("store.reused", float64(st.ControllersReused))
	rp.tr.add("store.resynthesized", float64(st.ControllersResynthesized))
	created, started, finished := stamp(st.Created), stamp(st.Started), stamp(st.Finished)
	rp.tr.add("server.queue_ms", float64(started.Sub(created))/1e6)
	rp.tr.add("server.run_ms", float64(finished.Sub(started))/1e6)
	m, err := c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	if m.Store != nil {
		rp.tr.add("store.bytes", float64(m.Store.ArtifactBytes-rp.storeBytes))
		rp.storeBytes = m.Store.ArtifactBytes
	}
	return area, nil
}

// stamp parses a JobStatus timestamp; a missing one reads as zero.
func stamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// countClustering records the clustering report's merge counts.
func (rp *replayer) countClustering(rep *core.Report) {
	rp.tr.add("core.merges", float64(len(rep.Merges)))
	rp.tr.add("core.skipped", float64(len(rep.Skipped)))
}

// synthesize replays flow's synthesizeNetlist/synthOne over every
// component: rename-isomorphic components share one synthesis through
// the canonical memo (and, across ops, the controller tier), and every
// component's netlist is the shared one renamed onto its own wires. It
// also returns hazver's units: one per distinct shape the replay
// synthesized with the minimizer.
func (rp *replayer) synthesize(ctx context.Context, n *core.Netlist, mode techmap.Mode) ([]*gates.Netlist, []flow.ControllerResult, []hazver.Unit, error) {
	var mapped []*gates.Netlist
	var results []flow.ControllerResult
	var units []hazver.Unit
	seen := map[string]bool{}
	for _, comp := range n.Components {
		rp.tr.component = comp.Name
		rp.tr.add("flow.components", 1)
		var cf *ch.CanonicalForm
		var ok bool
		rp.tr.span("ch.canonicalize", func() error {
			cf, ok = ch.CanonicalizeProgram(comp)
			return nil
		})
		unitKey := "raw|" + comp.Name
		var e *entry
		var sub map[string]string
		if !ok {
			var err error
			if e, err = rp.synthOne(ctx, comp, nil, mode); err != nil {
				return nil, nil, nil, err
			}
			mapped, results = append(mapped, e.nl), append(results, e.res)
		} else {
			unitKey = cf.Key
			key := fmt.Sprintf("%s|audit=true|%s", mode, cf.Key)
			if e, ok = rp.memo[key]; ok {
				rp.tr.add("flow.memo_hits", 1)
			} else if e, ok = rp.ctl[key]; !ok {
				var err error
				if e, err = rp.synthOne(ctx, comp, cf.Wires, mode); err != nil {
					return nil, nil, nil, err
				}
				if rp.ctl != nil {
					rp.ctl[key] = e
				}
			}
			rp.memo[key] = e
			var nl *gates.Netlist
			rp.tr.span("gates.rename", func() error {
				sub = map[string]string{}
				for i, w := range e.wires {
					if w != cf.Wires[i] {
						sub[w] = cf.Wires[i]
					}
				}
				if len(sub) > 0 {
					addDerivedRenames(sub, e.nl.NetNames)
				}
				nl = e.nl.Rename(comp.Name, sub)
				return nil
			})
			res := e.res
			res.Name = comp.Name
			mapped, results = append(mapped, nl), append(results, res)
		}
		if e.unit != nil && !seen[unitKey] {
			seen[unitKey] = true
			units = append(units, renamedUnit(e.unit, comp.Name, sub, mapped[len(mapped)-1]))
		}
	}
	return mapped, results, units, nil
}

// renamedUnit is the hazver unit of a shared shape renamed onto one
// component's wires, like its netlist, so the units of one arm agree
// on the wires they share — as units synthesized from the arm's own
// components do.
func renamedUnit(u *hazver.Unit, name string, sub map[string]string, nl *gates.Netlist) hazver.Unit {
	rn := func(s string) string {
		if t, ok := sub[s]; ok {
			return t
		}
		return s
	}
	out := hazver.Unit{Name: name, StateBits: u.StateBits, Netlist: nl,
		Transitions: make(map[string][]hfmin.Transition, len(u.Transitions))}
	for _, v := range u.Vars {
		out.Vars = append(out.Vars, rn(v))
	}
	for _, o := range u.Outputs {
		out.Outputs = append(out.Outputs, rn(o))
	}
	for f, ts := range u.Transitions {
		out.Transitions[rn(f)] = ts
	}
	return out
}

// synthOne replays flow's per-controller pipeline: compile, the hand
// library in the baseline arm, minimization, mapping and, in the
// speed-split arm, the mapped-logic audit.
func (rp *replayer) synthOne(ctx context.Context, comp *ch.Program, wires []string, mode techmap.Mode) (*entry, error) {
	var sp *bm.Spec
	if err := rp.tr.span("chtobm", func() error {
		var err error
		sp, err = chtobm.Compile(comp)
		return err
	}); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", comp.Name, err)
	}
	rp.tr.add("chtobm.states", float64(sp.NStates))
	e := &entry{wires: wires}
	if mode == techmap.AreaShared {
		var ok bool
		rp.tr.span("hclib", func() error {
			if e.nl, ok = hclib.Build(comp); ok {
				e.res = flow.ControllerResult{
					Name:     comp.Name,
					States:   sp.NStates,
					Cells:    len(e.nl.Instances),
					Area:     e.nl.Area(rp.lib),
					Critical: e.nl.CriticalDelay(rp.lib),
					Exact:    true,
				}
			}
			return nil
		})
		if ok {
			return e, nil
		}
	}
	var ctrl *minimalist.Controller
	if err := rp.tr.span("minimalist", func() error {
		var err error
		ctrl, err = minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: rp.pool, Ctx: ctx})
		return err
	}); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", comp.Name, err)
	}
	st := ctrl.Stats
	rp.tr.add("hfmin.functions", float64(st.Functions))
	rp.tr.add("hfmin.exact", float64(st.ExactFunctions))
	rp.tr.add("hfmin.enum_nodes", float64(st.EnumNodes))
	rp.tr.add("hfmin.branch_nodes", float64(st.BranchNodes))
	if err := rp.tr.span("techmap.map", func() error {
		var err error
		if e.nl, err = techmap.MapController(ctrl, mode, rp.lib); err != nil {
			return err
		}
		e.res = flow.ControllerResult{
			Name:      comp.Name,
			States:    sp.NStates,
			StateBits: ctrl.StateBits,
			Products:  ctrl.Products(),
			Cells:     len(e.nl.Instances),
			Area:      e.nl.Area(rp.lib),
			Critical:  e.nl.CriticalDelay(rp.lib),
			Exact:     st.Exact(),
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", comp.Name, err)
	}
	rp.tr.add("techmap.cells", float64(len(e.nl.Instances)))
	if mode == techmap.SpeedSplit {
		if err := rp.tr.span("techmap.audit", func() error {
			return techmap.CheckMappedOpt(ctrl, e.nl, rp.lib, techmap.CheckOptions{Pool: rp.pool, Ctx: ctx})
		}); err != nil {
			return nil, fmt.Errorf("flow: hazard audit: %w", err)
		}
	}
	e.unit = &hazver.Unit{
		Name:        comp.Name,
		Vars:        ctrl.Vars,
		Outputs:     ctrl.Spec.Outputs,
		StateBits:   ctrl.StateBits,
		Transitions: ctrl.Transitions,
		Netlist:     e.nl,
	}
	return e, nil
}

// addDerivedRenames extends a wire substitution to techmap's helper
// nets <wire>_p$<id> and <wire>_n$<id>, as the flow does when it
// splices a shared netlist onto new wires; the longest matching wire
// wins.
func addDerivedRenames(sub map[string]string, netNames []string) {
	for _, nm := range netNames {
		if _, ok := sub[nm]; ok {
			continue
		}
		best := ""
		for w := range sub {
			if len(w) > len(best) && (strings.HasPrefix(nm, w+"_p$") || strings.HasPrefix(nm, w+"_n$")) {
				best = w
			}
		}
		if best != "" {
			sub[nm] = sub[best] + nm[len(best):]
		}
	}
}

// simulate runs one design arm's benchmark as the flow does: the
// mapped controllers, the design's datapath and its benchmark
// environment, checked by the design's own Validate.
func simulate(ctx context.Context, d *designs.Design, mapped []*gates.Netlist, lib *cell.Library) (simTime, dpArea float64, events int64, desc string, err error) {
	s := sim.New(lib)
	for _, nl := range mapped {
		s.AddNetlist(nl, nl.Name, nil)
	}
	b := dpath.NewBuilder(s)
	d.Datapath(b)
	bench := d.Bench(b)
	if err := s.Init(); err != nil {
		return 0, 0, 0, "", err
	}
	bench.Start()
	for !bench.Done() {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, "", err
		}
		if err := s.Run(simTimeLimit, simEventLimit); err != nil {
			return 0, 0, 0, "", fmt.Errorf("%s: %w", d.Name, err)
		}
		if !bench.Done() && s.Quiet() {
			return 0, 0, 0, "", fmt.Errorf("%s: deadlock at %.2f ns (benchmark incomplete)", d.Name, s.Time)
		}
	}
	if err := bench.Validate(); err != nil {
		return 0, 0, 0, "", fmt.Errorf("%s: functional check failed: %w", d.Name, err)
	}
	return s.Time, b.Area, s.Events, bench.Description, nil
}
