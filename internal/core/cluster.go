package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/parallel"
)

// Merge records one successful activation-channel removal.
type Merge struct {
	Channel   string // the eliminated activation channel
	Activator string // component whose expression absorbed the body
	Activated string // component whose activation channel was hidden
	Result    string // name of the merged component
}

// Report describes what the clustering algorithms did.
type Report struct {
	Merges []Merge
	// Skipped lists the channels each T1 sweep inspected without
	// merging, one entry per sweep: a channel that stays unremovable
	// through k sweeps appears k times (the last sweep re-probes every
	// channel to confirm that nothing merges), so wagging-register's is
	// [e1 e2 e1 e2]. Under T2 it is the final round's list. The Table 3
	// digests pin it as is.
	Skipped       []string
	CallsSplit    []string // call components split by T2
	CallsRestored []string // calls whose fragments scattered; restored
	// Containment maps each original component name to the final
	// component that contains its behavior.
	Containment map[string]string
}

// activationBody returns the operator kind and body of an activated
// component: the component must have the shape
//
//	(rep (OP (p-to-p passive c) body))
//
// where OP is an interleaving operator that encloses (or sequences) the
// body within the activation handshake. It returns the hidden
// replacement expression (OP void body) per Section 4.1, or an error if
// the channel is not an activation channel of the component.
func activationBody(p *ch.Program, channel string) (ch.Expr, error) {
	rep, ok := p.Body.(*ch.Rep)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a rep-wrapped component", p.Name)
	}
	op, ok := rep.Body.(*ch.Op)
	if !ok {
		return nil, fmt.Errorf("core: %s: top-level expression is not an operator", p.Name)
	}
	c, ok := op.A.(*ch.Chan)
	if !ok || c.Kind != ch.PToP || c.Name != channel || c.Act != ch.Passive {
		return nil, fmt.Errorf("core: %s: channel %s is not its activation channel", p.Name, channel)
	}
	// The activation handshake must *enclose* the body (Section 4.1).
	// Only the enclosure operators qualify: with seq, the body runs
	// after the activation handshake completes, so the activating
	// component could start a new cycle while the body is still busy —
	// composing and hiding then yields pipelined behavior (and
	// potential interference) that the merged sequential component
	// does not have. The trace-theory verification (verify.go) catches
	// exactly this if the restriction is lifted.
	switch op.Kind {
	case ch.EncEarly, ch.EncMiddle, ch.EncLate:
	default:
		return nil, fmt.Errorf("core: %s: operator %s does not enclose the body in the activation handshake", p.Name, op.Kind)
	}
	// The body must be ACTIVE. With a passive body, the body's first
	// input transition shares a burst with the activation request, so
	// the composed system can accept next-iteration inputs while the
	// activating component is still finishing its own handshake — a
	// trace the merged sequential controller does not have. The
	// conformance fuzzer (fuzz_test.go) finds counterexamples within a
	// few iterations if this restriction is lifted. (The paper's §4.3
	// grid uses single-operator programs with active bodies, so it
	// never exercises the unsafe shape.)
	if op.B.Activity() != ch.Active {
		return nil, fmt.Errorf("core: %s: activated body must be active; %s body joins the activation burst", p.Name, op.B.Activity())
	}
	return &ch.Op{Kind: op.Kind, A: &ch.Void{}, B: op.B.Clone()}, nil
}

// sequentialContext reports whether every occurrence of the channel in
// the expression sits in a purely sequential context: no enc-middle or
// seq-ov ancestor. Under those operators the channel's handshake
// overlaps a sibling channel's, so inlining the activated body would
// serialize transitions the composed system performs concurrently —
// the sibling's environment could then deliver inputs the merged
// controller is not ready for (the conformance fuzzer exhibits
// counterexamples if this precondition is dropped).
func sequentialContext(e ch.Expr, channel string) bool {
	// hasActive reports whether the subtree performs any active
	// handshake of its own (third-party communication).
	var hasActive func(e ch.Expr) bool
	hasActive = func(e ch.Expr) bool {
		found := false
		ch.Walk(e, func(x ch.Expr) {
			switch n := x.(type) {
			case *ch.Chan:
				if n.Kind != ch.Verb && n.Act == ch.Active {
					found = true
				}
			case *ch.MuxAck:
				found = true
			}
		})
		return found
	}
	var rec func(e ch.Expr, concurrent bool) bool
	rec = func(e ch.Expr, concurrent bool) bool {
		switch n := e.(type) {
		case *ch.Chan:
			if n.Kind == ch.PToP && n.Name == channel {
				return !concurrent
			}
			return true
		case *ch.Rep:
			return rec(n.Body, concurrent)
		case *ch.Op:
			if n.Kind == ch.EncMiddle || n.Kind == ch.SeqOv {
				// Each side is concurrent with the other only if the
				// sibling performs active (third-party) handshakes; a
				// purely passive sibling is the environment-facing
				// activation, which the §4.3 grid verifies as safe.
				return rec(n.A, concurrent || hasActive(n.B)) &&
					rec(n.B, concurrent || hasActive(n.A))
			}
			return rec(n.A, concurrent) && rec(n.B, concurrent)
		case *ch.MuxAck:
			for _, arm := range n.Arms {
				if !rec(arm.Arg, concurrent) {
					return false
				}
			}
			return true
		case *ch.MuxReq:
			for _, arm := range n.Arms {
				if !rec(arm.Arg, concurrent) {
					return false
				}
			}
			return true
		default:
			return true
		}
	}
	return rec(e, false)
}

// ActivationChannelRemoval merges the activated component y into the
// activating component x by eliminating the activation channel
// (Section 4.1): the channel is hidden in y (replaced by void) and y's
// body is inlined at the channel's use sites in x. The merged program
// is returned without any synthesizability check; callers (the
// clustering algorithms) verify Burst-Mode synthesizability separately.
func ActivationChannelRemoval(channel string, x, y *ch.Program) (*ch.Program, error) {
	hidden, err := activationBody(y, channel)
	if err != nil {
		return nil, err
	}
	if cnt := ch.CountPToP(x.Body, channel); cnt == 0 {
		return nil, fmt.Errorf("core: %s does not use channel %s", x.Name, channel)
	}
	if !sequentialContext(x.Body, channel) {
		return nil, fmt.Errorf("core: %s: channel %s is used in a concurrent context; inlining would serialize it", x.Name, channel)
	}
	body, _ := ch.ReplacePToP(x.Body, channel, hidden)
	return &ch.Program{Name: x.Name, Body: body}, nil
}

// Options tune the clustering algorithms.
//
// MaxStates bounds the Burst-Mode state count of a clustered
// controller: merges whose result would exceed it are rejected, exactly
// like merges that fail the Burst-Mode aware checks. The paper's
// conclusions discuss this knob ("elaborate a set of restrictions such
// that the synthesis step becomes manageable") as the alternative to a
// post-clustering decomposition step; 0 means unlimited.
type Options struct {
	MaxStates int
	// Workers bounds the concurrency of the candidate legality probes
	// (each a memo lookup, plus an activation-channel removal and a
	// CH-to-BM compilation the first time a candidate is seen); 0 means
	// GOMAXPROCS.
	Workers int
	// Pool, when set, shares an existing worker pool (e.g. the flow's)
	// instead of creating one from Workers, so clustering and synthesis
	// draw from one global budget.
	Pool *parallel.Pool
	// Ctx, when set, cancels a clustering run in flight: legality
	// probes still waiting for a pool slot are abandoned and the run
	// returns the context's error. Nil means context.Background().
	Ctx context.Context
}

// ctx resolves the run's cancellation context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// pool resolves the worker pool the clustering run should use.
func (o Options) pool() *parallel.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	if o.Workers > 0 {
		return parallel.NewPool(o.Workers)
	}
	return parallel.Default()
}

// synthesizable reports whether the program compiles to a well-formed
// Burst-Mode specification (Table 1 legality + full CH-to-BM check)
// within the configured state bound.
func synthesizable(p *ch.Program, opt Options) bool {
	sp, err := chtobm.Compile(p)
	if err != nil {
		return false
	}
	return opt.MaxStates <= 0 || sp.NStates <= opt.MaxStates
}

// verdicts memoizes T1 legality verdicts for one T1ClusteringOpt or
// T2ClusteringOpt call: the parallel probes of a sweep, the re-fan after
// each commit, repeat sweeps and the rounds of T2 all share it. A
// verdict is "ActivationChannelRemoval succeeds and the merged program
// is synthesizable". It depends only on the channel and the two bodies
// (not on component names, and the options are fixed for the call), so
// it is keyed by the channel and the interned bodies of the activator
// and the activated component. Only the verdict is cached: a commit
// rebuilds the merged program from the current pair, whose activator
// names it.
type verdicts struct {
	memo parallel.Memo[bool]
	// ids interns body text (ch.ToSexp, which round-trips structurally,
	// so equal text means equal bodies) to short ids; body holds the id
	// of each component of the current T1 run's working netlist. Both
	// are written only between fan-outs, as components enter the
	// netlist, and only read by the probes.
	ids  map[string]string
	body map[*ch.Program]string
	// compiles counts the CH-to-BM compilations the memo ran.
	compiles parallel.Counter
}

func newVerdicts() *verdicts {
	return &verdicts{ids: map[string]string{}}
}

// enter interns the body of a component entering the working netlist.
func (v *verdicts) enter(p *ch.Program) {
	text := ch.ToSexp(p.Body).String()
	id, ok := v.ids[text]
	if !ok {
		id = strconv.Itoa(len(v.ids))
		v.ids[text] = id
	}
	v.body[p] = id
}

// legal reports whether merging y into x over the channel is legal,
// computing the verdict once per (channel, x body, y body).
func (v *verdicts) legal(channel string, x, y *ch.Program, opt Options) bool {
	ok, _, _ := v.memo.Do(channel+" "+v.body[x]+" "+v.body[y], func() (bool, error) {
		merged, err := ActivationChannelRemoval(channel, x, y)
		if err != nil {
			return false, nil
		}
		v.compiles.Add(1)
		return synthesizable(merged, opt), nil
	})
	return ok
}

// T1Clustering implements procedure T1_clustering of Section 4.4: it
// iterates over the point-to-point channels of the netlist; for each,
// it forms the clustered component of the two connected components and
// keeps it if the result is still Burst-Mode synthesizable. The channel
// sweep repeats until no further merge commits, so clusters are "as
// large as possible" regardless of channel ordering (a merge can turn a
// previously three-party channel into a two-party one). The input
// netlist is not modified. The report's Containment maps original
// component names to their final containers.
func T1Clustering(n *Netlist) (*Netlist, *Report, error) {
	return T1ClusteringOpt(n, Options{})
}

// T1ClusteringOpt is T1Clustering with tunable limits.
func T1ClusteringOpt(n *Netlist, opt Options) (*Netlist, *Report, error) {
	opt.Pool = opt.pool()
	return t1Cluster(n.Clone(), opt, newVerdicts())
}

// t1Cluster runs T1 clustering on a netlist it owns and rewrites in
// place, sharing the call's verdict memo.
func t1Cluster(out *Netlist, opt Options, v *verdicts) (*Netlist, *Report, error) {
	rep := &Report{Containment: map[string]string{}}
	v.body = make(map[*ch.Program]string, len(out.Components))
	for _, c := range out.Components {
		rep.Containment[c.Name] = c.Name
		v.enter(c)
	}
	for {
		merged, err := t1Sweep(out, rep, opt, v)
		if err != nil {
			return nil, nil, err
		}
		if !merged {
			break
		}
	}
	sortComponents(out)
	return out, rep, nil
}

// t1Candidate is one channel's evaluation against the current netlist:
// the activator x and the activated y, both nil when the channel is not
// committable (skipped).
type t1Candidate struct {
	x, y *ch.Program
}

// t1Evaluate probes one channel for a legal merge. It only reads the
// netlist (ActivationChannelRemoval and the synthesizability check
// clone everything they rewrite, and the verdict memo is safe for
// concurrent use), so candidates for many channels can be evaluated
// concurrently against the same netlist state.
func t1Evaluate(out *Netlist, channel string, uses map[string][]ChanUse, opt Options, v *verdicts) t1Candidate {
	us := uses[channel]
	if len(us) != 2 {
		return t1Candidate{}
	}
	// x activates (active side); y is activated (passive side).
	var xName, yName string
	switch {
	case us[0].Port.Act == ch.Active && us[1].Port.Act == ch.Passive:
		xName, yName = us[0].Component, us[1].Component
	case us[0].Port.Act == ch.Passive && us[1].Port.Act == ch.Active:
		xName, yName = us[1].Component, us[0].Component
	default:
		return t1Candidate{}
	}
	if xName == yName {
		return t1Candidate{}
	}
	x, y := out.Find(xName), out.Find(yName)
	if !v.legal(channel, x, y, opt) {
		return t1Candidate{}
	}
	return t1Candidate{x: x, y: y}
}

// t1Sweep performs one pass over the current internal channels,
// reporting whether any merge committed.
//
// Commit order is that of the sequential algorithm: the remaining
// channels are probed in parallel across the worker pool against the
// current netlist, the first committable one (in channel order)
// commits, and the channels after it are probed again against the
// updated netlist — exactly the states the sequential sweep would have
// probed, so merges, skips and the final netlist are byte-for-byte the
// same at any worker count. Most probes repeat an earlier one: the
// re-fan after a commit re-probes channels whose two components did not
// change, the last sweep re-probes every channel to confirm that nothing
// merges, and each T2 round re-runs T1. So a probe is a lookup in the
// call's verdict memo, and only a candidate never seen before pays for
// the channel removal and the CH-to-BM compilation.
func t1Sweep(out *Netlist, rep *Report, opt Options, v *verdicts) (bool, error) {
	channels, err := out.InternalPToP()
	if err != nil {
		return false, err
	}
	anyMerge := false
	for i := 0; i < len(channels); {
		uses, err := out.ChannelUses()
		if err != nil {
			return false, err
		}
		rest := channels[i:]
		cands, err := parallel.MapCtx(opt.ctx(), opt.Pool, len(rest), func(k int) (t1Candidate, error) {
			return t1Evaluate(out, rest[k], uses, opt, v), nil
		})
		if err != nil {
			return false, err
		}
		committed := -1
		for k, cand := range cands {
			if cand.x == nil {
				rep.Skipped = append(rep.Skipped, rest[k])
				continue
			}
			// Commit: rebuild the merge from the current pair and
			// replace x and y with it.
			merged, err := ActivationChannelRemoval(rest[k], cand.x, cand.y)
			if err != nil {
				return false, err
			}
			out.remove(cand.x.Name)
			out.remove(cand.y.Name)
			out.Components = append(out.Components, merged)
			v.enter(merged)
			for orig, cont := range rep.Containment {
				if cont == cand.y.Name || cont == cand.x.Name {
					rep.Containment[orig] = merged.Name
				}
			}
			rep.Merges = append(rep.Merges, Merge{
				Channel: rest[k], Activator: cand.x.Name, Activated: cand.y.Name, Result: merged.Name,
			})
			anyMerge = true
			committed = k
			break
		}
		if committed < 0 {
			break // every remaining channel skipped; sweep is done
		}
		i += committed + 1
	}
	return anyMerge, nil
}

// callShape inspects a component for the n-way call shape of Section
// 4.2: (rep (mutex (enc-early (p-to-p passive p_i) (p-to-p active c))
// ...)), all arms sharing the same active channel. It returns the
// passive channel names and the shared active channel name.
func callShape(p *ch.Program) (passives []string, active string, ok bool) {
	rep, isRep := p.Body.(*ch.Rep)
	if !isRep {
		return nil, "", false
	}
	var arms []*ch.Op
	var collect func(e ch.Expr) bool
	collect = func(e ch.Expr) bool {
		op, isOp := e.(*ch.Op)
		if !isOp {
			return false
		}
		if op.Kind == ch.Mutex {
			return collect(op.A) && collect(op.B)
		}
		if op.Kind != ch.EncEarly {
			return false
		}
		arms = append(arms, op)
		return true
	}
	if !collect(rep.Body) {
		return nil, "", false
	}
	if len(arms) < 2 {
		return nil, "", false
	}
	for _, arm := range arms {
		pc, okP := arm.A.(*ch.Chan)
		ac, okA := arm.B.(*ch.Chan)
		if !okP || !okA || pc.Kind != ch.PToP || ac.Kind != ch.PToP ||
			pc.Act != ch.Passive || ac.Act != ch.Active {
			return nil, "", false
		}
		if active == "" {
			active = ac.Name
		} else if active != ac.Name {
			return nil, "", false
		}
		passives = append(passives, pc.Name)
	}
	return passives, active, true
}

// splitCall breaks an n-way call into n fragments, each enclosing a
// handshake on a replica of the call's active channel within one of the
// original passive channels (Section 4.2).
func splitCall(p *ch.Program, passives []string, active string) []*ch.Program {
	frags := make([]*ch.Program, len(passives))
	for i, pc := range passives {
		frags[i] = &ch.Program{
			Name: fmt.Sprintf("%s#%d", p.Name, i+1),
			Body: &ch.Rep{Body: &ch.Op{
				Kind: ch.EncEarly,
				A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: pc},
				B:    &ch.Chan{Kind: ch.PToP, Act: ch.Active, Name: active},
			}},
		}
	}
	return frags
}

// T2Clustering implements procedure T2_clustering of Section 4.4: all
// call components are split into fragments, T1 clustering runs on the
// new netlist, and any call whose fragments did not all cluster into
// the same final controller is restored. Restoration re-runs the
// pipeline with the failed calls kept intact, iterating until stable.
func T2Clustering(n *Netlist) (*Netlist, *Report, error) {
	return T2ClusteringOpt(n, Options{})
}

// T2ClusteringOpt is T2Clustering with tunable limits.
func T2ClusteringOpt(n *Netlist, opt Options) (*Netlist, *Report, error) {
	return t2Cluster(n, opt, newVerdicts())
}

// t2Cluster runs T2 clustering rounds until no call is restored; every
// round's T1 run shares the verdict memo v.
func t2Cluster(n *Netlist, opt Options, v *verdicts) (*Netlist, *Report, error) {
	opt.Pool = opt.pool()
	noSplit := map[string]bool{}
	var allRestored []string
	for {
		out, rep, restored, err := t2Round(n, noSplit, opt, v)
		if err != nil {
			return nil, nil, err
		}
		if len(restored) == 0 {
			// Record calls restored in earlier rounds: they were split,
			// found scattered, and kept intact this round.
			rep.CallsSplit = append(rep.CallsSplit, allRestored...)
			rep.CallsRestored = append(rep.CallsRestored, allRestored...)
			sort.Strings(rep.CallsSplit)
			sort.Strings(rep.CallsRestored)
			return out, rep, nil
		}
		for _, name := range restored {
			noSplit[name] = true
		}
		allRestored = append(allRestored, restored...)
	}
}

func t2Round(n *Netlist, noSplit map[string]bool, opt Options, v *verdicts) (*Netlist, *Report, []string, error) {
	work := n.Clone()
	type callInfo struct {
		orig  *ch.Program
		frags []string
	}
	var calls []callInfo
	var split []*ch.Program
	kept := &Netlist{}
	for _, c := range work.Components {
		passives, active, ok := callShape(c)
		if !ok || noSplit[c.Name] {
			kept.Components = append(kept.Components, c)
			continue
		}
		frags := splitCall(c, passives, active)
		info := callInfo{orig: c.Clone()}
		for _, f := range frags {
			info.frags = append(info.frags, f.Name)
			split = append(split, f)
		}
		calls = append(calls, info)
	}
	kept.Components = append(kept.Components, split...)

	out, rep, err := t1Cluster(kept, opt, v)
	if err != nil {
		return nil, nil, nil, err
	}
	var restored []string
	for _, info := range calls {
		rep.CallsSplit = append(rep.CallsSplit, info.orig.Name)
		container := ""
		together := true
		for _, f := range info.frags {
			c := rep.Containment[f]
			if c == f {
				together = false // fragment was never inlined anywhere
				break
			}
			if container == "" {
				container = c
			} else if container != c {
				together = false
				break
			}
		}
		if !together {
			restored = append(restored, info.orig.Name)
			rep.CallsRestored = append(rep.CallsRestored, info.orig.Name)
			continue
		}
		for _, f := range info.frags {
			rep.Containment[info.orig.Name] = rep.Containment[f]
			delete(rep.Containment, f)
		}
	}
	return out, rep, restored, nil
}

// Optimize runs the full clustering pipeline of the paper's back-end:
// T2 clustering, which subsumes T1.
func Optimize(n *Netlist) (*Netlist, *Report, error) {
	return T2Clustering(n)
}

// OptimizeOpt runs the clustering pipeline with tunable limits (e.g. a
// cluster state bound).
func OptimizeOpt(n *Netlist, opt Options) (*Netlist, *Report, error) {
	return T2ClusteringOpt(n, opt)
}

func sortComponents(n *Netlist) {
	sort.Slice(n.Components, func(i, j int) bool {
		return n.Components[i].Name < n.Components[j].Name
	})
}
