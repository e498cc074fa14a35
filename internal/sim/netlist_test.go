package sim

import (
	"fmt"
	"reflect"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// handshakePart is a small controller part named name: it answers its
// port req with ack through a private inverter pair on net "t", and
// ties one NAND2 input low.
func handshakePart(name, req, ack string) *gates.Netlist {
	nl := gates.New(name)
	r, t, a := nl.Net(req), nl.Net("t"), nl.Net(ack)
	nb := nl.Net("nb")
	nl.Inputs, nl.Outputs = []int{r}, []int{a}
	nl.AddInstance("INV", []int{r}, t, 1)
	nl.AddInstance("NAND2", []int{t, nl.ConstZero()}, nb, 1)
	nl.AddInstance("AND2", []int{nb, t}, nl.Net("tt"), 2)
	nl.AddInstance("INV", []int{nl.Net("tt")}, a, 2)
	return nl
}

// settle runs s until it is quiet.
func settle(t *testing.T, s *Simulator) {
	t.Helper()
	if err := s.Run(s.Time+1e3, 1e6); err != nil {
		t.Fatal(err)
	}
	if !s.Quiet() {
		t.Fatal("simulator stopped with events pending")
	}
}

// TestFromNetlistReadsOnly: the simulator keeps the merged netlist's
// net ids and only reads it. A run that interns datapath nets, watches
// and schedules by name and adds a gate reading a netlist net leaves
// the netlist's names, instances and input lists as they were, and the
// added gate's fanout entry lands outside every other net's window of
// the shared block.
func TestFromNetlistReadsOnly(t *testing.T) {
	nl := gates.Merge("top", []*gates.Netlist{
		handshakePart("a", "go_r", "mid_r"),
		handshakePart("b", "mid_r", "done_a"),
	})
	names := append([]string(nil), nl.NetNames...)
	insts := append([]gates.Instance(nil), nl.Instances...)
	for i := range insts {
		insts[i].Inputs = append([]int(nil), insts[i].Inputs...)
	}

	s := FromNetlist(cell.AMS035(), nl)
	for id, name := range nl.NetNames {
		if got := s.Net(name); got != id {
			t.Fatalf("Net(%q) = %d, want the netlist's id %d", name, got, id)
		}
	}
	fanout := make([][]int, len(s.fanout))
	for id, f := range s.fanout {
		fanout[id] = append([]int(nil), f...)
	}
	mid := s.Net("mid_r")
	echo := s.Net("echo_a") // datapath-only: interned after the netlist's nets
	if echo != len(nl.NetNames) {
		t.Fatalf("datapath net id %d, want %d", echo, len(nl.NetNames))
	}
	s.AddGate("BUF", []int{mid}, echo)
	for id := range fanout {
		want := fanout[id]
		if id == mid {
			want = append(want, len(nl.Instances))
		}
		if got := s.fanout[id]; len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("fanout of %s = %v, want %v", nl.NetNames[id], s.fanout[id], want)
		}
	}
	var seen []bool
	s.Watch("done_a", func(_ *Simulator, _ int, v bool) { seen = append(seen, v) })
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	s.Schedule("go_r", true, 1)
	settle(t, s)
	if !s.Value("done_a") || !s.Value("echo_a") || !reflect.DeepEqual(seen, []bool{true}) {
		t.Fatalf("done_a=%v echo_a=%v watched %v; want the request answered", s.Value("done_a"), s.Value("echo_a"), seen)
	}

	if !reflect.DeepEqual(nl.NetNames, names) || !reflect.DeepEqual(nl.Instances, insts) {
		t.Fatalf("the run changed the netlist:\n%v\n%v", nl.NetNames, nl.Instances)
	}
	if nl.HasNet("echo_a") {
		t.Fatal("a datapath net was interned into the netlist")
	}
}

// TestFromNetlistRepeatedPartNames: two parts with one name keep their
// private nets apart in the merged circuit ("p.t" and "p.2.t"), so
// raising one part's request answers that part alone.
func TestFromNetlistRepeatedPartNames(t *testing.T) {
	nl := gates.Merge("top", []*gates.Netlist{
		handshakePart("p", "x_r", "x_a"),
		handshakePart("p", "u_r", "u_a"),
	})
	s := FromNetlist(cell.AMS035(), nl)
	if s.Net("p.t") == s.Net("p.2.t") {
		t.Fatal("the two parts' private nets share an id")
	}
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	s.Schedule("x_r", true, 1)
	settle(t, s)
	for name, want := range map[string]bool{"x_a": true, "p.t": false, "u_a": false, "p.2.t": true} {
		if got := s.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// chainMerge merges that many handshake parts in a chain, each answering
// the previous one's acknowledge: 4 gates a part.
func chainMerge(parts int) *gates.Netlist {
	ps := make([]*gates.Netlist, parts)
	for i := range ps {
		ps[i] = handshakePart(fmt.Sprintf("c%d", i), fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1))
	}
	return gates.Merge("chain", ps)
}

// TestFromNetlistAllocs pins FromNetlist at a fixed number of
// allocations, the same for 4 gates and for 4,096: the simulator, its
// two maps, the per-net values and fanout headers, the gates, the load
// counts and the fanout block. None is per net or per gate.
func TestFromNetlistAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lib := cell.AMS035()
	const want = 8
	for _, parts := range []int{1, 1024} {
		nl := chainMerge(parts)
		if got := testing.AllocsPerRun(20, func() { FromNetlist(lib, nl) }); got != want {
			t.Errorf("FromNetlist on %d gates: %v allocations, want %d", len(nl.Instances), got, want)
		}
	}
}
