package gates

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestMerge(t *testing.T) {
	// a: env-driven input "req"; output "mid" = INV(req); internal "t$1".
	a := New("a")
	req := a.Net("req")
	t1 := a.Net("t$1")
	mid := a.Net("mid")
	a.Inputs = []int{req}
	a.Outputs = []int{mid}
	a.AddInstance("INV", []int{req}, t1, 1)
	a.AddInstance("INV", []int{t1}, mid, 2)

	// b: consumes "mid", drives "ack"; internal "t$1" (must not short
	// with a's), and a tied-low net.
	b := New("b")
	bmid := b.Net("mid")
	bt1 := b.Net("t$1")
	ack := b.Net("ack")
	b.Inputs = []int{bmid}
	b.Outputs = []int{ack}
	b.AddInstance("AND2", []int{bmid, b.ConstZero()}, bt1, 1)
	b.AddInstance("INV", []int{bt1}, ack, 2)

	m := Merge("top", []*Netlist{a, b})

	if m.Name != "top" {
		t.Fatalf("Name = %q", m.Name)
	}
	// "mid" unified: exactly one net of that name, driven by a's g1 and
	// consumed by b's AND2.
	if !m.HasNet("mid") || m.HasNet("a.mid") || m.HasNet("b.mid") {
		t.Fatalf("port net not unified by name: %v", m.NetNames)
	}
	// Internal nets namespaced per part.
	if !m.HasNet("a.t$1") || !m.HasNet("b.t$1") || m.HasNet("t$1") {
		t.Fatalf("internal nets not namespaced: %v", m.NetNames)
	}
	// Const0 unified onto the merged netlist's own tie-low net.
	if m.Const0 < 0 {
		t.Fatal("merged Const0 missing")
	}
	// Inputs: only env-driven part inputs ("req"; "mid" is driven by a).
	wantIn := []string{"req"}
	var gotIn []string
	for _, id := range m.Inputs {
		gotIn = append(gotIn, m.NetNames[id])
	}
	if !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatalf("Inputs = %v, want %v", gotIn, wantIn)
	}
	// Outputs: every part output, part order.
	wantOut := []string{"mid", "ack"}
	var gotOut []string
	for _, id := range m.Outputs {
		gotOut = append(gotOut, m.NetNames[id])
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("Outputs = %v, want %v", gotOut, wantOut)
	}
	if len(m.Instances) != 4 {
		t.Fatalf("instance count = %d, want 4", len(m.Instances))
	}
}

func TestMergeDuplicatePartNames(t *testing.T) {
	mk := func(in, out string) *Netlist {
		nl := New("seq")
		i := nl.Net(in)
		o := nl.Net(out)
		s := nl.Net("scratch")
		nl.Inputs = []int{i}
		nl.Outputs = []int{o}
		nl.AddInstance("INV", []int{i}, s, 0)
		nl.AddInstance("INV", []int{s}, o, 0)
		return nl
	}
	m := Merge("top", []*Netlist{mk("x", "y"), mk("y", "z")})
	if !m.HasNet("seq.scratch") || !m.HasNet("seq.2.scratch") {
		t.Fatalf("duplicate part names not disambiguated: %v", m.NetNames)
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func() []*Netlist {
		a := New("a")
		x := a.Net("x")
		y := a.Net("y")
		a.Inputs = []int{x}
		a.Outputs = []int{y}
		a.AddInstance("INV", []int{x}, y, 0)
		return []*Netlist{a}
	}
	first := Merge("top", mk()).Verilog(nil)
	for i := 0; i < 5; i++ {
		if got := Merge("top", mk()).Verilog(nil); got != first {
			t.Fatalf("Merge not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

// mergeRef is Merge as it was before it sized its output from the
// parts: it interns through Net, copies each instance's inputs twice
// (once into its own slice, again in AddInstance) and keeps its port
// bookkeeping in maps. TestMergeMatchesReference holds Merge to it.
func mergeRef(name string, parts []*Netlist) *Netlist {
	out := New(name)
	names := NameParts(parts)
	isOut := map[int]bool{}
	var partIns []int
	for pi, p := range parts {
		remap := make([]int, len(p.NetNames))
		for id := range p.NetNames {
			if id == p.Const0 {
				remap[id] = out.ConstZero()
			} else {
				remap[id] = out.Net(names[pi].Name(id))
			}
		}
		for _, inst := range p.Instances {
			ins := make([]int, len(inst.Inputs))
			for i, in := range inst.Inputs {
				ins[i] = remap[in]
			}
			out.AddInstance(inst.Cell, ins, remap[inst.Output], inst.Module)
		}
		for _, id := range p.Outputs {
			if m := remap[id]; !isOut[m] {
				isOut[m] = true
				out.Outputs = append(out.Outputs, m)
			}
		}
		for _, id := range p.Inputs {
			partIns = append(partIns, remap[id])
		}
	}
	driven := make(map[int]bool, len(out.Instances))
	for _, inst := range out.Instances {
		driven[inst.Output] = true
	}
	isIn := map[int]bool{}
	for _, m := range partIns {
		if !driven[m] && !isIn[m] && !isOut[m] {
			isIn[m] = true
			out.Inputs = append(out.Inputs, m)
		}
	}
	return out
}

// randParts builds n seeded random parts: part names drawn from a
// small pool, so some repeat; ports drawn from a shared pool of
// channel wires, so parts drive and read each other's; private nets
// that repeat across parts; sometimes a tied-low net; and instances of
// zero to four inputs, some reading the same net twice.
func randParts(rng *rand.Rand, n int) []*Netlist {
	cells := []string{"INV", "NAND2", "AND3", "OR2", "C2", "NOR4", "TIE"}
	parts := make([]*Netlist, n)
	for pi := range parts {
		p := New(fmt.Sprintf("ctl%d", rng.Intn(3)))
		isPort := map[int]bool{}
		var nets []int
		for k := 1 + rng.Intn(8); k > 0; k-- {
			nets = append(nets, p.Net(fmt.Sprintf("t$%d", rng.Intn(6))))
		}
		if rng.Intn(3) == 0 {
			nets = append(nets, p.ConstZero())
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			id := p.Net(fmt.Sprintf("c%d_%c", rng.Intn(5), "ra"[rng.Intn(2)]))
			nets = append(nets, id)
			if isPort[id] || id == p.Const0 {
				continue
			}
			isPort[id] = true
			if rng.Intn(2) == 0 {
				p.Inputs = append(p.Inputs, id)
			} else {
				p.Outputs = append(p.Outputs, id)
			}
		}
		for k := rng.Intn(10); k > 0; k-- {
			ins := make([]int, rng.Intn(5))
			for i := range ins {
				ins[i] = nets[rng.Intn(len(nets))]
			}
			p.AddInstance(cells[rng.Intn(len(cells))], ins, nets[rng.Intn(len(nets))], rng.Intn(3))
		}
		parts[pi] = p
	}
	return parts
}

// same compares two slices element by element; an empty slice equals
// a nil one, since Merge sizes slices that mergeRef left nil.
func same[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestMergeMatchesReference: Merge names, orders and wires every net,
// instance and port exactly as mergeRef, on seeded random parts, and
// leaves the parts as it found them. An instance without inputs keeps
// nil inputs, as AddInstance left it.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		parts := randParts(rng, rng.Intn(6))
		before := make([]string, len(parts))
		for i, p := range parts {
			before[i] = p.Verilog(nil)
		}
		got, want := Merge("top", parts), mergeRef("top", parts)
		for i, p := range parts {
			if p.Verilog(nil) != before[i] {
				t.Fatalf("trial %d: Merge changed part %d", trial, i)
			}
		}
		if got.Name != want.Name || got.Const0 != want.Const0 ||
			!same(got.NetNames, want.NetNames) || !same(got.Inputs, want.Inputs) ||
			!same(got.Outputs, want.Outputs) || !same(got.Instances, want.Instances) {
			t.Fatalf("trial %d: Merge differs from the reference:\n%s\nvs\n%s", trial, got.Verilog(nil), want.Verilog(nil))
		}
		for id, name := range want.NetNames {
			if gid, ok := got.Lookup(name); !ok || gid != id {
				t.Fatalf("trial %d: Lookup(%q) = %d, %v; want %d", trial, name, gid, ok, id)
			}
		}
	}
}
