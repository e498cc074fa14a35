package flow

import (
	"context"
	"fmt"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/dpath"
	"balsabm/internal/gates"
	"balsabm/internal/techmap"
)

// checkedNetlist runs the checked arm of a netlist already readied for
// mode (SpeedSplit is the opt arm) and returns the controllers it
// ships and their reports; any error, a gate's included, fails it.
func checkedNetlist(n *core.Netlist, mode techmap.Mode, opt *Options) ([]*gates.Netlist, []ControllerResult, error) {
	arm := "unopt"
	if mode == techmap.SpeedSplit {
		arm = "opt"
	}
	c, err := newRunner(context.Background(), opt).checkedArm("test", arm, n, mode)
	if err != nil {
		return nil, nil, err
	}
	return c.Mapped, c.Controllers, nil
}

func runDesign(t *testing.T, name string) *DesignResult {
	t.Helper()
	d, err := designs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSystolicCounterFlow(t *testing.T) {
	r := runDesign(t, "systolic-counter")
	if r.SpeedImprovement() <= 0 {
		t.Errorf("no speed improvement: unopt %.2f, opt %.2f", r.Unopt.BenchTime, r.Opt.BenchTime)
	}
	if len(r.Opt.Controllers) >= len(r.Unopt.Controllers) {
		t.Errorf("clustering did not reduce controllers: %d -> %d",
			len(r.Unopt.Controllers), len(r.Opt.Controllers))
	}
	if len(r.Report.CallsSplit) == 0 {
		t.Error("no calls distributed in the systolic counter")
	}
}

func TestWaggingRegisterFlow(t *testing.T) {
	r := runDesign(t, "wagging-register")
	if r.SpeedImprovement() <= 0 {
		t.Errorf("no speed improvement: unopt %.2f, opt %.2f", r.Unopt.BenchTime, r.Opt.BenchTime)
	}
	// The output call's fragments land in the two bank clusters, which
	// the datapath steering keeps apart — so call distribution must
	// restore the call (the algorithm's fallback path).
	if len(r.Report.CallsSplit) == 0 {
		t.Error("expected the output call to be split")
	}
	if len(r.Report.CallsRestored) != 1 || r.Report.CallsRestored[0] != "wcall" {
		t.Errorf("expected wcall restored, got %v", r.Report.CallsRestored)
	}
	// Several clustered components remain (not one monolith).
	if len(r.Opt.Controllers) < 3 {
		t.Errorf("expected several clusters, got %d", len(r.Opt.Controllers))
	}
}

func TestSSEMCallRestored(t *testing.T) {
	// The jmp call's sites are activated by the datapath decoder, so
	// its fragments are never inlined anywhere: the call is restored.
	r := runDesign(t, "ssem")
	found := false
	for _, c := range r.Report.CallsRestored {
		if c == "calljmp" {
			found = true
		}
	}
	if !found {
		t.Errorf("calljmp not restored: %+v", r.Report)
	}
}

func TestStackFlow(t *testing.T) {
	r := runDesign(t, "stack")
	if r.SpeedImprovement() <= 0 {
		t.Errorf("no speed improvement: unopt %.2f, opt %.2f", r.Unopt.BenchTime, r.Opt.BenchTime)
	}
	if len(r.Opt.Controllers) != 2 {
		t.Errorf("stack should cluster into push and pop controllers, got %d", len(r.Opt.Controllers))
	}
}

func TestSSEMFlow(t *testing.T) {
	r := runDesign(t, "ssem")
	if r.SpeedImprovement() <= 0 {
		t.Errorf("no speed improvement: unopt %.2f, opt %.2f", r.Unopt.BenchTime, r.Opt.BenchTime)
	}
}

func TestFig2Summary(t *testing.T) {
	d, err := designs.ByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	before, after, rep, err := Fig2Summary(d)
	if err != nil {
		t.Fatal(err)
	}
	if after.Components >= before.Components {
		t.Errorf("no collapse: %v -> %v", before, after)
	}
	if after.InternalChannels != 0 {
		t.Errorf("internal channels remain: %v", after)
	}
	if len(rep.Merges) == 0 {
		t.Error("no merges recorded")
	}
}

// The countdown loop program exercises the ADDI, BNZ and JMP-call paths
// (including the restored call) at gate level, with full data checks.
func TestSSEMLoopProgram(t *testing.T) {
	d := designs.SSEMWithProgram("ssem-loop", designs.SSEMLoopProgram(),
		"count acc 3..0 with a backwards branch",
		func(mem *dpath.Memory) error {
			if mem.Words[21] != 0 {
				return fmt.Errorf("mem[21] = %d, want 0 (last stored acc)", mem.Words[21])
			}
			return nil
		})
	r, err := RunDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedImprovement() <= 0 {
		t.Errorf("no improvement on the loop program")
	}
}
