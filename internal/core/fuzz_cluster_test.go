package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// Inputs larger than these are skipped, so that one input clusters in
// milliseconds. Every built-in and Balsa design fits.
const (
	fuzzMaxBytes      = 4096
	fuzzMaxComponents = 24
)

// FuzzCluster feeds CH netlist text through ParseNetlist and both
// clustering algorithms, and holds each to the speculative reference
// sweep at one worker: the same clustered netlist and the same full
// report, or the same error. T1 also merges two components into one
// per recorded merge, which is what a commit that dropped a component
// would break. The reference keys components by name too, so a netlist
// that repeats a name is only checked to be rejected.
//
// Seeds: the lint corpus (examples/lint, whose duplicate.ch repeats a
// name), the control netlists of every built-in and Balsa design, and
// a netlist with a component named like a call fragment.
func FuzzCluster(f *testing.F) {
	files, err := filepath.Glob("../../examples/*/*.ch")
	if err != nil || len(files) == 0 {
		f.Fatalf("examples missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	balsa, err := designs.AllBalsa()
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range append(designs.All(), balsa...) {
		f.Add(d.Control().Format())
	}
	f.Add(collidingFragments)
	render := func(n *core.Netlist, rep *core.Report) string {
		return n.Format() + fmt.Sprintf("%+v", *rep)
	}
	algos := []struct {
		name        string
		run         func(*core.Netlist, core.Options) (*core.Netlist, *core.Report, error)
		speculative func(*core.Netlist, core.Options, int) (*core.Netlist, *core.Report, error)
	}{
		{"T1", core.T1ClusteringOpt, core.SpeculativeT1},
		{"T2", core.T2ClusteringOpt, core.SpeculativeT2},
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzMaxBytes {
			t.Skip()
		}
		n, err := core.ParseNetlist(src)
		if err != nil || len(n.Components) > fuzzMaxComponents {
			t.Skip()
		}
		dup := ""
		seen := map[string]bool{}
		for _, c := range n.Components {
			if seen[c.Name] && dup == "" {
				dup = c.Name
			}
			seen[c.Name] = true
		}
		for _, a := range algos {
			out, rep, err := a.run(n, core.Options{})
			if dup != "" {
				if want := fmt.Sprintf("two components named %q", dup); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: got %v on a netlist that repeats %q, want an error naming it", a.name, err, dup)
				}
				continue
			}
			rout, rrep, rerr := a.speculative(n, core.Options{}, 1)
			if fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("%s: error %v, speculative reference error %v", a.name, err, rerr)
			}
			if err != nil {
				continue
			}
			if got, want := render(out, rep), render(rout, rrep); got != want {
				t.Fatalf("%s: sequential sweep and speculative reference disagree:\n--- sequential ---\n%s\n--- speculative ---\n%s", a.name, got, want)
			}
			if a.name == "T1" && len(out.Components) != len(n.Components)-len(rep.Merges) {
				t.Fatalf("T1: %d components in, %d merges, %d out", len(n.Components), len(rep.Merges), len(out.Components))
			}
		}
	})
}
