package hc

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/dpath"
	"balsabm/internal/sim"
)

func sampleNetlist() *Netlist {
	n := &Netlist{Name: "sample"}
	n.Add(&Component{Kind: KSequencer, Name: "top", Act: "go", Subs: []string{"f1", "f2"}})
	n.Add(&Component{Kind: KVariable, Name: "v", Width: 8, Write: "v.w", Reads: []string{"v.r1"}})
	n.Add(&Component{Kind: KConst, Name: "c", Out: "k", Value: 5, Width: 8})
	n.Add(&Component{Kind: KFetch, Name: "f1c", Act: "f1", Src: "k", Dst: "v.w"})
	n.Add(&Component{Kind: KFunc, Name: "inc", Out: "vp1", Op: "add", Ins: []string{"v.r1", "k2"}, Width: 8})
	n.Add(&Component{Kind: KConst, Name: "c2", Out: "k2", Value: 1, Width: 8})
	n.Add(&Component{Kind: KFetch, Name: "f2c", Act: "f2", Src: "vp1", Dst: "out"})
	return n
}

func TestControlExtraction(t *testing.T) {
	n := sampleNetlist()
	ctl, err := n.Control()
	if err != nil {
		t.Fatal(err)
	}
	if len(ctl.Components) != 1 || ctl.Components[0].Name != "top" {
		t.Fatalf("control: %v", ctl.Format())
	}
	s := n.Stats()
	if s.Control != 1 || s.Datapath != 6 {
		t.Fatalf("stats: %+v", s)
	}
}

// Build + simulate: the sequencer is replaced by an environment that
// performs the two fetch activations in order; v must become 5 and the
// output push must carry 6.
func TestBuildAndRun(t *testing.T) {
	n := sampleNetlist()
	s := sim.New(cell.AMS035())
	b := dpath.NewBuilder(s)
	if err := n.Build(b); err != nil {
		t.Fatal(err)
	}
	var out []uint64
	b.EnvConsumePush("out", 0.2, func(v uint64) { out = append(out, v) })
	done := false
	s.Watch("f1_a", func(s *sim.Simulator, _ int, val bool) {
		if val {
			s.Schedule("f1_r", false, 0.1)
		} else {
			s.Schedule("f2_r", true, 0.1)
		}
	})
	s.Watch("f2_a", func(s *sim.Simulator, _ int, val bool) {
		if val {
			s.Schedule("f2_r", false, 0.1)
		} else {
			done = true
			s.Stop()
		}
	})
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	s.Schedule("f1_r", true, 0.1)
	if err := s.Run(1e6, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !done || len(out) != 1 || out[0] != 6 {
		t.Fatalf("done=%v out=%v want [6]", done, out)
	}
}

func TestBuildErrors(t *testing.T) {
	bad := &Netlist{Name: "bad"}
	bad.Add(&Component{Kind: KFunc, Name: "f", Out: "o", Op: "frobnicate", Width: 4})
	s := sim.New(cell.AMS035())
	if err := bad.Build(dpath.NewBuilder(s)); err == nil {
		t.Fatal("unknown operator accepted")
	}
	bad2 := &Netlist{Name: "bad2"}
	bad2.Add(&Component{Kind: KMemRead, Name: "r", Mem: "nope", Out: "o", Addr: "a", Width: 4})
	if err := bad2.Build(dpath.NewBuilder(sim.New(cell.AMS035()))); err == nil {
		t.Fatal("unknown memory accepted")
	}
	bad3 := &Netlist{Name: "bad3"}
	bad3.Add(&Component{Kind: "gizmo", Name: "g"})
	if err := bad3.Build(dpath.NewBuilder(sim.New(cell.AMS035()))); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestControlErrors(t *testing.T) {
	n := &Netlist{Name: "x"}
	n.Add(&Component{Kind: KSequencer, Name: "s", Act: "a"})
	if _, err := n.Control(); err == nil {
		t.Fatal("sequencer without subs accepted")
	}
	n2 := &Netlist{Name: "y"}
	n2.Add(&Component{Kind: KCall, Name: "c", Subs: []string{"one"}, Out: "o"})
	if _, err := n2.Control(); err == nil {
		t.Fatal("one-way call accepted")
	}
}

func TestFuncOpsTable(t *testing.T) {
	cases := []struct {
		op   string
		ins  []uint64
		want uint64
	}{
		{"add", []uint64{3, 4}, 7},
		{"sub", []uint64{10, 4}, 6},
		{"and", []uint64{6, 3}, 2},
		{"or", []uint64{6, 3}, 7},
		{"xor", []uint64{6, 3}, 5},
		{"shl", []uint64{1, 3}, 8},
		{"shr", []uint64{8, 3}, 1},
		{"eq", []uint64{5, 5}, 1},
		{"ne", []uint64{5, 5}, 0},
		{"lt", []uint64{4, 5}, 1},
		{"id", []uint64{9}, 9},
		{"sext13", []uint64{0x1FFF}, ^uint64(0)},
		{"sext13", []uint64{5}, 5},
	}
	for _, c := range cases {
		f, ok := FuncOps[c.op]
		if !ok {
			t.Fatalf("missing op %s", c.op)
		}
		if got := f(c.ins); got != c.want {
			t.Errorf("%s(%v) = %d, want %d", c.op, c.ins, got, c.want)
		}
	}
}

func TestFormatAndUsers(t *testing.T) {
	n := sampleNetlist()
	text := n.Format()
	for _, want := range []string{"(breeze sample", "component sequencer top", "(subs f1 f2)", "(value 5)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}
