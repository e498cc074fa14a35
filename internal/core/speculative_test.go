package core

import (
	"sort"

	"balsabm/internal/ch"
	"balsabm/internal/parallel"
)

// This file keeps the speculative clustering the sequential sweep
// replaced, as the reference TestClusteringMatchesSpeculativeSweep
// compares it with. Each sweep probed every remaining channel on a
// worker pool, committed the first legal one in channel order, and
// probed the channels after it again against the updated netlist. The
// code is the old t1Sweep and the T1/T2 loops around it, with two
// changes: the pool is a parameter, and legality is judged directly by
// ActivationChannelRemoval and synthesizable, without the verdict
// memo, which is not safe for concurrent use.

// SpeculativeT1 is T1ClusteringOpt by the speculative reference,
// probing on a pool of the given number of workers.
func SpeculativeT1(n *Netlist, opt Options, workers int) (*Netlist, *Report, error) {
	return t1ClusterRef(n.Clone(), opt, parallel.NewPool(workers))
}

// SpeculativeT2 is T2ClusteringOpt by the speculative reference.
func SpeculativeT2(n *Netlist, opt Options, workers int) (*Netlist, *Report, error) {
	return t2ClusterRef(n, opt, parallel.NewPool(workers))
}

// t1CandidateRef is one channel's evaluation against the current
// netlist: the activator x and the activated y, both nil when the
// channel is not committable (skipped).
type t1CandidateRef struct {
	x, y *ch.Program
}

// t1EvaluateRef probes one channel for a legal merge. It only reads the
// netlist, so candidates for many channels can be evaluated
// concurrently against the same netlist state.
func t1EvaluateRef(out *Netlist, channel string, uses map[string][]ChanUse, opt Options) t1CandidateRef {
	us := uses[channel]
	if len(us) != 2 {
		return t1CandidateRef{}
	}
	var xName, yName string
	switch {
	case us[0].Port.Act == ch.Active && us[1].Port.Act == ch.Passive:
		xName, yName = us[0].Component, us[1].Component
	case us[0].Port.Act == ch.Passive && us[1].Port.Act == ch.Active:
		xName, yName = us[1].Component, us[0].Component
	default:
		return t1CandidateRef{}
	}
	if xName == yName {
		return t1CandidateRef{}
	}
	x, y := out.Find(xName), out.Find(yName)
	merged, err := ActivationChannelRemoval(channel, x, y)
	if err != nil || !synthesizable(merged, opt) {
		return t1CandidateRef{}
	}
	return t1CandidateRef{x: x, y: y}
}

// t1SweepRef performs one pass over the current internal channels,
// reporting whether any merge committed: the remaining channels are
// probed in parallel against the current netlist, the first committable
// one (in channel order) commits, and the channels after it are probed
// again against the updated netlist.
func t1SweepRef(out *Netlist, rep *Report, opt Options, pool *parallel.Pool) (bool, error) {
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
		cands, err := parallel.MapCtx(opt.ctx(), pool, len(rest), func(k int) (t1CandidateRef, error) {
			return t1EvaluateRef(out, rest[k], uses, opt), nil
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
			merged, err := ActivationChannelRemoval(rest[k], cand.x, cand.y)
			if err != nil {
				return false, err
			}
			out.remove(cand.x.Name)
			out.remove(cand.y.Name)
			out.Components = append(out.Components, merged)
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

func t1ClusterRef(out *Netlist, opt Options, pool *parallel.Pool) (*Netlist, *Report, error) {
	rep := &Report{Containment: map[string]string{}}
	for _, c := range out.Components {
		rep.Containment[c.Name] = c.Name
	}
	for {
		merged, err := t1SweepRef(out, rep, opt, pool)
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

func t2ClusterRef(n *Netlist, opt Options, pool *parallel.Pool) (*Netlist, *Report, error) {
	noSplit := map[string]bool{}
	var allRestored []string
	for {
		out, rep, restored, err := t2RoundRef(n, noSplit, opt, pool)
		if err != nil {
			return nil, nil, err
		}
		if len(restored) == 0 {
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

func t2RoundRef(n *Netlist, noSplit map[string]bool, opt Options, pool *parallel.Pool) (*Netlist, *Report, []string, error) {
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

	out, rep, err := t1ClusterRef(kept, opt, pool)
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
				together = false
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
