package core_test

import (
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// BenchmarkCluster runs T2 clustering over the four Table 3 control
// netlists on one worker; compiles/op counts the candidate merges
// compiled per op (one per distinct channel and body pair).
func BenchmarkCluster(b *testing.B) {
	var nets []*core.Netlist
	for _, d := range designs.All() {
		nets = append(nets, d.Control())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var compiles int64
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			m := core.NewVerdicts()
			if _, _, err := m.T2(n, core.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
			compiles += m.Compiles()
		}
	}
	b.ReportMetric(float64(compiles)/float64(b.N), "compiles/op")
}
