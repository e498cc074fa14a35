package core_test

import (
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// table3Nets returns the control netlists of the four Table 3 designs.
func table3Nets() []*core.Netlist {
	var nets []*core.Netlist
	for _, d := range designs.All() {
		nets = append(nets, d.Control())
	}
	return nets
}

// clusterAll runs T2 clustering over the netlists, each with a fresh
// memo, and returns how many candidate merges the runs compiled.
func clusterAll(tb testing.TB, nets []*core.Netlist) int64 {
	var compiles int64
	for _, n := range nets {
		m := core.NewVerdicts()
		if _, _, err := m.T2(n, core.Options{}); err != nil {
			tb.Fatal(err)
		}
		compiles += m.Compiles()
	}
	return compiles
}

// BenchmarkCluster runs T2 clustering over the four Table 3 control
// netlists; compiles/op counts the candidate merges compiled per op
// (one per distinct channel and body pair the sequential sweeps probe).
func BenchmarkCluster(b *testing.B) {
	nets := table3Nets()
	b.ReportAllocs()
	b.ResetTimer()
	var compiles int64
	for i := 0; i < b.N; i++ {
		compiles += clusterAll(b, nets)
	}
	b.ReportMetric(float64(compiles)/float64(b.N), "compiles/op")
}

// clusterAllocBudget bounds the allocations of one BenchmarkCluster op.
// The channel index and the appended body keys brought it from 27,053
// to about 15,500; rebuilding ChannelUses after every commit or
// interning bodies by ch.ToSexp text would blow it.
const clusterAllocBudget = 20_000

func TestClusteringAllocBudget(t *testing.T) {
	nets := table3Nets()
	allocs := testing.AllocsPerRun(5, func() { clusterAll(t, nets) })
	if allocs > clusterAllocBudget {
		t.Errorf("one clustering op of the Table 3 designs made %.0f allocations, budget %d", allocs, clusterAllocBudget)
	}
}
