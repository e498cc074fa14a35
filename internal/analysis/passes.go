package analysis

import (
	"fmt"
	"sort"
	"strings"

	"balsabm/internal/ch"
	"balsabm/internal/core"
)

// ---------------------------------------------------------------------
// legality: the Table 1 "Burst-Mode aware" restrictions, as a pass.
//
// Unlike ch.Validate (first error only), this walks every program to
// the leaves and reports all violations, each with the Table 1 row
// that forbids the combination.

// LegalityPass checks every operator application (including the
// implicit first arguments of mux channels) against Table 1, plus the
// structural rules: break only inside rep, channels passive or active,
// positive wire counts, mux channels with at least one arm.
var LegalityPass = &Pass{
	Name: "legality",
	Doc:  "Table 1 operator/activity legality and structural rules (CH001-CH005)",
	Run: func(n *core.Netlist, r *Reporter) {
		for _, p := range n.Components {
			checkLegality(p.Body, "body", 0, r)
		}
	},
}

// table1Row renders the legality row of Table 1 for one operator.
func table1Row(op ch.OpKind) string {
	cell := func(a, b ch.Activity) string {
		if ch.Legal(op, a, b) {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf("Table 1 row %s: a/a=%s a/p=%s p/a=%s p/p=%s",
		op,
		cell(ch.Active, ch.Active), cell(ch.Active, ch.Passive),
		cell(ch.Passive, ch.Active), cell(ch.Passive, ch.Passive))
}

func checkLegality(e ch.Expr, path string, loopDepth int, r *Reporter) {
	switch n := e.(type) {
	case *ch.Chan:
		if n.Kind != ch.Verb && n.Act == ch.Neutral {
			r.Errorf(n.Pos, "CH003", "channel %q must be passive or active", n.Name)
		}
		if (n.Kind == ch.MultReq || n.Kind == ch.MultAck) && n.N < 1 {
			r.Errorf(n.Pos, "CH004", "channel %q needs a positive wire count, got %d", n.Name, n.N)
		}
	case *ch.Void:
	case *ch.Break:
		if loopDepth == 0 {
			r.Errorf(n.Pos, "CH002", "break outside of rep loop")
		}
	case *ch.Rep:
		checkLegality(n.Body, path+"/rep", loopDepth+1, r)
	case *ch.Op:
		actA, actB := n.A.Activity(), n.B.Activity()
		if !ch.Legal(n.Kind, actA, actB) {
			r.Errorf(n.Pos, "CH001", "illegal combination: %s applied to %s/%s arguments",
				n.Kind, actA, actB)
			r.Note("%s", table1Row(n.Kind))
			r.Note("at %s", path)
		}
		checkLegality(n.A, fmt.Sprintf("%s/%s[1]", path, n.Kind), loopDepth, r)
		checkLegality(n.B, fmt.Sprintf("%s/%s[2]", path, n.Kind), loopDepth, r)
	case *ch.MuxAck:
		checkMuxArms(n.Pos, n.Name, "mux-ack", ch.Active, n.Arms, path, loopDepth, r)
	case *ch.MuxReq:
		checkMuxArms(n.Pos, n.Name, "mux-req", ch.Passive, n.Arms, path, loopDepth, r)
	}
}

// checkMuxArms checks the implicit first argument of each mux arm (the
// channel's own activity) against Table 1, then recurses into the arm.
func checkMuxArms(pos ch.Pos, name, kind string, act ch.Activity, arms []ch.MuxArm, path string, loopDepth int, r *Reporter) {
	if len(arms) == 0 {
		r.Errorf(pos, "CH005", "%s %q has no arms", kind, name)
		return
	}
	for i, arm := range arms {
		armPath := fmt.Sprintf("%s/%s[%d]", path, kind, i+1)
		if !ch.Legal(arm.Op, act, arm.Arg.Activity()) {
			p := ch.ExprPos(arm.Arg)
			if !p.IsValid() {
				p = pos
			}
			r.Errorf(p, "CH001", "illegal combination: %s applied to %s/%s arguments (implicit first argument of %s %q)",
				arm.Op, act, arm.Arg.Activity(), kind, name)
			r.Note("%s", table1Row(arm.Op))
			r.Note("at %s", armPath)
		}
		checkLegality(arm.Arg, armPath, loopDepth, r)
	}
}

// ---------------------------------------------------------------------
// channels: netlist-level channel wiring.

// chanOcc is one occurrence of a named channel in one component.
type chanOcc struct {
	comp string
	kind ch.ChanKind
	act  ch.Activity
	n    int
	mux  bool
	pos  ch.Pos
}

func (o chanOcc) signature() string {
	if o.mux {
		return fmt.Sprintf("mux/%s/%d", o.act, o.n)
	}
	return fmt.Sprintf("%s/%s/%d", o.kind, o.act, o.n)
}

// occurrences lists every named-channel occurrence of a program in
// source order.
func occurrences(p *ch.Program) []struct {
	name string
	occ  chanOcc
} {
	var out []struct {
		name string
		occ  chanOcc
	}
	ch.Walk(p.Body, func(e ch.Expr) {
		switch n := e.(type) {
		case *ch.Chan:
			if n.Kind == ch.Verb {
				return
			}
			out = append(out, struct {
				name string
				occ  chanOcc
			}{n.Name, chanOcc{comp: p.Name, kind: n.Kind, act: n.Act, n: n.N, pos: n.Pos}})
		case *ch.MuxAck:
			out = append(out, struct {
				name string
				occ  chanOcc
			}{n.Name, chanOcc{comp: p.Name, act: ch.Active, n: len(n.Arms), mux: true, pos: n.Pos}})
		case *ch.MuxReq:
			out = append(out, struct {
				name string
				occ  chanOcc
			}{n.Name, chanOcc{comp: p.Name, act: ch.Passive, n: len(n.Arms), mux: true, pos: n.Pos}})
		}
	})
	return out
}

// ChannelsPass checks channel wiring across the whole netlist:
// conflicting redeclarations within a component (CH012), channels
// touching more than two components (CH011), internal channels whose
// two ends have the same activity — driven twice or listening twice —
// (CH010), components sharing no channel with the rest of a
// multi-component netlist (CH013), and two components with one name
// (CH014), which clustering and the simulator key components by.
var ChannelsPass = &Pass{
	Name: "channels",
	Doc:  "undeclared/conflicting, multiply-driven and disconnected channels, duplicate component names (CH010-CH014)",
	Run: func(n *core.Netlist, r *Reporter) {
		firstNamed := map[string]*ch.Program{}
		for _, p := range n.Components {
			if first, ok := firstNamed[p.Name]; ok {
				r.Errorf(p.Pos, "CH014", "two components named %q", p.Name)
				r.Note("first component named %q at %s", p.Name, first.Pos)
				continue
			}
			firstNamed[p.Name] = p
		}
		type compUse struct {
			comp  string
			first chanOcc
		}
		byName := map[string][]compUse{}
		var names []string // deterministic iteration order
		for _, p := range n.Components {
			firstIn := map[string]chanOcc{}
			for _, o := range occurrences(p) {
				if prev, ok := firstIn[o.name]; ok {
					if prev.signature() != o.occ.signature() {
						r.Errorf(o.occ.pos, "CH012",
							"channel %q redeclared as %s", o.name, describeOcc(o.occ))
						r.Note("first declared as %s at %s", describeOcc(prev), prev.pos)
					}
					continue
				}
				firstIn[o.name] = o.occ
				if len(byName[o.name]) == 0 {
					names = append(names, o.name)
				}
				byName[o.name] = append(byName[o.name], compUse{comp: p.Name, first: o.occ})
			}
		}
		for _, name := range names {
			uses := byName[name]
			if len(uses) > 2 {
				comps := make([]string, len(uses))
				for i, u := range uses {
					comps[i] = u.comp
				}
				r.Errorf(uses[2].first.pos, "CH011",
					"channel %q connects %d components (%s); channels are point-to-point",
					name, len(uses), strings.Join(comps, ", "))
				continue
			}
			if len(uses) == 2 {
				a, b := uses[0].first, uses[1].first
				if a.act == b.act {
					what := "passive at both ends (no component ever activates it)"
					if a.act == ch.Active {
						what = "driven from both ends"
					}
					r.Errorf(b.pos, "CH010", "internal channel %q is %s", name, what)
					r.Note("other end in component %q at %s", a.comp, a.pos)
				}
				if a.mux != b.mux || (!a.mux && a.kind != b.kind) || a.n != b.n {
					r.Errorf(b.pos, "CH012",
						"channel %q declared as %s here but %s in component %q",
						name, describeOcc(b), describeOcc(a), a.comp)
					r.Note("other declaration at %s", a.pos)
				}
			}
		}
		// Disconnected components (only meaningful with 2+ components).
		if len(n.Components) > 1 {
			for _, p := range n.Components {
				shared := false
				for _, o := range occurrences(p) {
					if len(byName[o.name]) > 1 {
						shared = true
						break
					}
				}
				if !shared {
					r.Warnf(p.Pos, "CH013",
						"component %q shares no channel with the rest of the netlist", p.Name)
				}
			}
		}
	},
}

func describeOcc(o chanOcc) string {
	if o.mux {
		if o.act == ch.Active {
			return fmt.Sprintf("mux-ack(%d arms, active)", o.n)
		}
		return fmt.Sprintf("mux-req(%d arms, passive)", o.n)
	}
	if o.kind == ch.PToP {
		return fmt.Sprintf("p-to-p(%s)", o.act)
	}
	return fmt.Sprintf("%s(%s, %d wires)", o.kind, o.act, o.n)
}

// ---------------------------------------------------------------------
// unreachable: control flow that can never execute.

// alwaysBreaks reports whether executing e necessarily exits the
// innermost enclosing rep loop (a break on every path).
func alwaysBreaks(e ch.Expr) bool {
	switch n := e.(type) {
	case *ch.Break:
		return true
	case *ch.Rep:
		return false // its breaks bind to it
	case *ch.Op:
		if n.Kind == ch.Mutex {
			return alwaysBreaks(n.A) && alwaysBreaks(n.B)
		}
		return alwaysBreaks(n.A) || alwaysBreaks(n.B)
	case *ch.MuxAck:
		return allArmsBreak(n.Arms)
	case *ch.MuxReq:
		return allArmsBreak(n.Arms)
	}
	return false
}

func allArmsBreak(arms []ch.MuxArm) bool {
	if len(arms) == 0 {
		return false
	}
	for _, a := range arms {
		if !alwaysBreaks(a.Arg) {
			return false
		}
	}
	return true
}

// repEscapes reports whether e contains a break bound to the
// *enclosing* loop (i.e. not captured by a nested rep).
func repEscapes(e ch.Expr) bool {
	switch n := e.(type) {
	case *ch.Break:
		return true
	case *ch.Rep:
		return false
	case *ch.Op:
		return repEscapes(n.A) || repEscapes(n.B)
	case *ch.MuxAck:
		for _, a := range n.Arms {
			if repEscapes(a.Arg) {
				return true
			}
		}
	case *ch.MuxReq:
		for _, a := range n.Arms {
			if repEscapes(a.Arg) {
				return true
			}
		}
	}
	return false
}

// neverTerminates reports whether e can never complete normally (a
// rep with no break on any path, or a composition forcing one).
func neverTerminates(e ch.Expr) bool {
	switch n := e.(type) {
	case *ch.Rep:
		return !repEscapes(n.Body)
	case *ch.Op:
		if n.Kind == ch.Mutex {
			return neverTerminates(n.A) && neverTerminates(n.B)
		}
		return neverTerminates(n.A) || neverTerminates(n.B)
	}
	return false
}

// UnreachablePass flags expressions that can never execute: the second
// argument of a seq whose first always breaks (CH020) or never
// terminates (CH021), and rep loops whose body breaks on the first
// iteration (CH022).
var UnreachablePass = &Pass{
	Name: "unreachable",
	Doc:  "code after break and after non-terminating rep bodies (CH020-CH022)",
	Run: func(n *core.Netlist, r *Reporter) {
		for _, p := range n.Components {
			ch.Walk(p.Body, func(e ch.Expr) {
				switch x := e.(type) {
				case *ch.Op:
					if x.Kind != ch.Seq {
						return
					}
					switch {
					case alwaysBreaks(x.A):
						r.Warnf(ch.ExprPos(x.B), "CH020",
							"unreachable: the preceding expression always breaks out of the loop")
					case neverTerminates(x.A):
						r.Warnf(ch.ExprPos(x.B), "CH021",
							"unreachable: the preceding rep loop never terminates (its body has no break)")
					}
				case *ch.Rep:
					if alwaysBreaks(x.Body) {
						r.Infof(x.Pos, "CH022",
							"rep body always breaks on its first iteration; the loop runs at most once")
					}
				}
			})
		}
	},
}

// ---------------------------------------------------------------------
// mutex: genuine external choices.

// initialChannels returns the names of the channels whose first
// transition guards e — the external events that can start it.
func initialChannels(e ch.Expr) []string {
	switch n := e.(type) {
	case *ch.Chan:
		if n.Kind == ch.Verb {
			return nil
		}
		return []string{n.Name}
	case *ch.MuxAck:
		return []string{n.Name}
	case *ch.MuxReq:
		return []string{n.Name}
	case *ch.Rep:
		return initialChannels(n.Body)
	case *ch.Op:
		if n.Kind == ch.Mutex {
			return append(initialChannels(n.A), initialChannels(n.B)...)
		}
		if n.A.Activity() == ch.Neutral {
			return initialChannels(n.B)
		}
		return initialChannels(n.A)
	}
	return nil
}

// MutexPass checks that every mutex is a resolvable external choice:
// Table 1 already demands two passive arguments (CH001 covers the
// rest), but two passive branches guarded by the *same* channel can
// never be told apart by the environment (CH030).
var MutexPass = &Pass{
	Name: "mutex",
	Doc:  "mutex requires two genuine, distinguishable passive choices (CH030)",
	Run: func(n *core.Netlist, r *Reporter) {
		for _, p := range n.Components {
			ch.Walk(p.Body, func(e ch.Expr) {
				x, ok := e.(*ch.Op)
				if !ok || x.Kind != ch.Mutex {
					return
				}
				// Compare the direct branches only; nested mutexes are
				// visited separately by the walk, so an n-ary chain is
				// checked pairwise without duplicate reports.
				seen := map[string]bool{}
				for _, name := range initialChannels(x.A) {
					seen[name] = true
				}
				dup := map[string]bool{}
				for _, name := range initialChannels(x.B) {
					if seen[name] && !dup[name] {
						dup[name] = true
						r.Errorf(x.Pos, "CH030",
							"mutex alternatives are both guarded by channel %q; the external choice cannot be resolved", name)
					}
				}
			})
		}
	},
}

// ---------------------------------------------------------------------
// verb: phase-ordering sanity of user-specified expansions.

// VerbPass checks each verb channel's hand-written four-phase events:
// edges of one signal must alternate (CH040) and return the signal to
// its initial level (CH041); an all-empty verb should be void (CH042);
// a verb whose first event is empty gets its activity from a later
// event, which is rarely intended (CH043).
var VerbPass = &Pass{
	Name: "verb",
	Doc:  "verb event phase-ordering sanity (CH040-CH043)",
	Run: func(n *core.Netlist, r *Reporter) {
		for _, p := range n.Components {
			ch.Walk(p.Body, func(e ch.Expr) {
				c, ok := e.(*ch.Chan)
				if !ok || c.Kind != ch.Verb {
					return
				}
				checkVerb(c, r)
			})
		}
	},
}

func checkVerb(c *ch.Chan, r *Reporter) {
	type state struct {
		lastRise bool
		count    int
	}
	states := map[string]*state{}
	var order []string
	total := 0
	for _, ev := range c.Ev {
		for _, it := range ev {
			t, ok := it.(ch.Trans)
			if !ok {
				continue
			}
			total++
			s := states[t.Signal]
			if s == nil {
				s = &state{lastRise: !t.Rise} // first edge is always legal
				states[t.Signal] = s
				order = append(order, t.Signal)
			}
			if s.lastRise == t.Rise {
				edge := "falls"
				if t.Rise {
					edge = "rises"
				}
				r.Errorf(c.Pos, "CH040",
					"verb signal %q %s twice without the opposite edge", t.Signal, edge)
			}
			s.lastRise = t.Rise
			s.count++
		}
	}
	if total == 0 {
		r.Warnf(c.Pos, "CH042", "verb declares no transitions; use void instead")
		return
	}
	for _, sig := range order {
		if states[sig].count%2 != 0 {
			r.Warnf(c.Pos, "CH041",
				"verb signal %q does not return to its initial level (odd number of edges)", sig)
		}
	}
	if len(c.Ev[0]) == 0 {
		r.Infof(c.Pos, "CH043",
			"verb's first event is empty; its activity is inferred from a later event")
	}
}

// ---------------------------------------------------------------------
// cluster: advisory findings tying lint output to the paper's
// optimizations.

// ClusterPass flags optimization opportunities, not problems: internal
// point-to-point channels that T1 activation-channel removal could
// hide (CH100, §4.1), and call-shaped components that T2 call
// distribution could split (CH101, §4.2).
var ClusterPass = &Pass{
	Name: "cluster",
	Doc:  "advisory T1/T2 clustering opportunities (CH100-CH101)",
	Run: func(n *core.Netlist, r *Reporter) {
		if len(n.Components) > 1 {
			if internal, err := n.InternalPToP(); err == nil {
				for _, name := range internal {
					reportT1(n, name, r)
				}
			}
		}
		for _, p := range n.Components {
			reportT2(p, r)
		}
	},
}

// reportT1 emits the CH100 advisory for one hideable channel, at the
// active (activating) end.
func reportT1(n *core.Netlist, name string, r *Reporter) {
	var activeComp, passiveComp string
	var pos ch.Pos
	for _, p := range n.Components {
		ch.Walk(p.Body, func(e ch.Expr) {
			c, ok := e.(*ch.Chan)
			if !ok || c.Kind != ch.PToP || c.Name != name {
				return
			}
			if c.Act == ch.Active && activeComp == "" {
				activeComp, pos = p.Name, c.Pos
			}
			if c.Act == ch.Passive && passiveComp == "" {
				passiveComp = p.Name
			}
		})
	}
	if activeComp == "" || passiveComp == "" {
		return
	}
	r.Infof(pos, "CH100",
		"internal channel %q (activates %q from %q) is hideable: T1 activation-channel-removal candidate",
		name, passiveComp, activeComp)
}

// reportT2 emits the CH101 advisory when a component is an n-way call
// that T2 distributes (ch.CallShape).
func reportT2(p *ch.Program, r *Reporter) {
	passives, active, ok := ch.CallShape(p)
	if !ok {
		return
	}
	r.Infof(p.Pos, "CH101",
		"component %q is a %d-way call on channel %q: T2 call-distribution candidate",
		p.Name, len(passives), active)
}

// sortedCodes returns the diagnostic code table in code order (used by
// documentation commands and tests).
func sortedCodes() []string {
	out := make([]string, 0, len(Codes))
	for c := range Codes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
