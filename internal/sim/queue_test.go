package sim

import (
	"fmt"
	"runtime"
	"testing"

	"balsabm/internal/cell"
)

// chainNetlist builds the fixed netlist of the event-queue tests: an
// input driving a chain of 32 inverters, each stage also feeding a
// NAND2 with the input, so input edges closer together than the chain's
// delay keep many gate events in flight at once.
func chainNetlist(tb testing.TB) (*Simulator, int) {
	tb.Helper()
	s := New(cell.AMS035())
	in := s.Net("in")
	prev := in
	for i := 0; i < 32; i++ {
		out := s.Net(fmt.Sprintf("n%d", i))
		s.AddGate("INV", []int{prev}, out)
		s.AddGate("NAND2", []int{in, out}, s.Net(fmt.Sprintf("m%d", i)))
		prev = out
	}
	if err := s.Init(); err != nil {
		tb.Fatal(err)
	}
	return s, in
}

// pulseTrain schedules 8 input edges 0.3 ns apart, ending at the
// input's starting value, and runs the simulator until it is quiet.
func pulseTrain(tb testing.TB, s *Simulator, in int) {
	v := s.ValueOf(in)
	for i := 0; i < 8; i++ {
		v = !v
		s.ScheduleNet(in, v, 0.3*float64(i+1))
	}
	if err := s.Run(s.Time+1e6, 1<<40); err != nil {
		tb.Fatal(err)
	}
	if !s.Quiet() {
		tb.Fatal("simulator stopped with events pending")
	}
}

// TestEventQueueAllocFree pins the typed event heap: once the queue has
// grown to its working size, scheduling and running events allocates
// nothing.
func TestEventQueueAllocFree(t *testing.T) {
	s, in := chainNetlist(t)
	pulseTrain(t, s, in)
	before := s.Events
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { pulseTrain(t, s, in) })
	perRun := float64(s.Events-before) / (runs + 1) // AllocsPerRun adds one warm-up call
	if perRun == 0 {
		t.Fatal("the pulse train applied no events")
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per pulse train of %.0f events, want 0", allocs, perRun)
	}
}

// BenchmarkSimRun times pulse trains through the fixed chain netlist
// and reports events and allocations per event.
func BenchmarkSimRun(b *testing.B) {
	s, in := chainNetlist(b)
	pulseTrain(b, s, in)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events := s.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pulseTrain(b, s, in)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	events = s.Events - events
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
}
