package flow

import (
	"context"
	"testing"

	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/sim"
)

// TestMergedSimulationMatchesPerPart: for every Table 3 design and
// both arms, the simulator the flow builds on the arm's merged circuit
// (sim.FromNetlist on CheckedArm.Merged) and the reference that adds
// each shipped controller by name (sim.AddNetlist, as the flow did
// before it merged once per arm) finish the benchmark at the same
// time, with the same event count, datapath area and Validate verdict,
// and leave every controller port net at the same value.
func TestMergedSimulationMatchesPerPart(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and simulates every Table 3 design")
	}
	type outcome struct {
		time, dpArea float64
		events       int64
		desc, err    string
	}
	for _, d := range designs.All() {
		for _, arm := range []string{"unopt", "opt"} {
			c, err := SynthesizeCheckedCtx(context.Background(), d.Name, arm, d.Control(), nil)
			if err != nil {
				t.Fatalf("%s.%s: %v", d.Name, arm, err)
			}
			r := newRunner(context.Background(), nil)
			run := func(s *sim.Simulator) outcome {
				var o outcome
				var err error
				o.time, o.dpArea, o.events, o.desc, err = r.runBench(d, s)
				if err != nil {
					o.err = err.Error()
				}
				return o
			}
			merged := sim.FromNetlist(r.opt.Lib, c.Merged)
			ref := sim.New(r.opt.Lib)
			for _, nl := range c.Mapped {
				ref.AddNetlist(nl, nl.Name, nil)
			}
			got, want := run(merged), run(ref)
			if got != want {
				t.Errorf("%s.%s: merged circuit gives %+v, per-part reference %+v", d.Name, arm, got, want)
			}
			if want.err != "" || want.events == 0 {
				t.Errorf("%s.%s: the reference run did not complete: %+v", d.Name, arm, want)
			}
			ports := 0
			for _, nl := range c.Mapped {
				for _, ids := range [][]int{nl.Inputs, nl.Outputs} {
					for _, id := range ids {
						name := nl.NetNames[id]
						if g, w := merged.Value(name), ref.Value(name); g != w {
							t.Errorf("%s.%s: port %s of %s ends at %v, per-part reference %v", d.Name, arm, name, nl.Name, g, w)
						}
						ports++
					}
				}
			}
			if ports == 0 {
				t.Errorf("%s.%s: no port nets compared", d.Name, arm)
			}
			if c.Merged.Name != d.Name+"."+arm || len(c.Merged.Instances) != instances(c.Mapped) {
				t.Errorf("%s.%s: merged circuit %q has %d instances, the controllers %d",
					d.Name, arm, c.Merged.Name, len(c.Merged.Instances), instances(c.Mapped))
			}
		}
	}
}

// instances counts the instances of a set of netlists.
func instances(nls []*gates.Netlist) int {
	n := 0
	for _, nl := range nls {
		n += len(nl.Instances)
	}
	return n
}

// BenchmarkArmNetlist times what the flow does between an arm's
// synthesis and its benchmark run, for the eight arms of the Table 3
// designs: merge the shipped controllers into one circuit
// (gates.Merge) and build the simulator on it (sim.FromNetlist). One
// op covers all eight arms.
func BenchmarkArmNetlist(b *testing.B) {
	type arm struct {
		name   string
		mapped []*gates.Netlist
	}
	var arms []arm
	gateCount := 0
	for _, d := range designs.All() {
		for _, a := range []string{"unopt", "opt"} {
			c, err := SynthesizeCheckedCtx(context.Background(), d.Name, a, d.Control(), nil)
			if err != nil {
				b.Fatalf("%s.%s: %v", d.Name, a, err)
			}
			arms = append(arms, arm{d.Name + "." + a, c.Mapped})
			gateCount += instances(c.Mapped)
		}
	}
	lib := newRunner(context.Background(), nil).opt.Lib
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range arms {
			sim.FromNetlist(lib, gates.Merge(a.name, a.mapped))
		}
	}
	b.ReportMetric(float64(gateCount), "gates/op")
}
