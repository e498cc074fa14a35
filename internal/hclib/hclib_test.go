package hclib

import (
	"fmt"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chmap"
	"balsabm/internal/chtobm"
	"balsabm/internal/sim"
)

// verify runs the hand circuit against the component's compiled
// Burst-Mode specification with a gate-level spec driver.
func verify(t *testing.T, p *ch.Program, cycles int) {
	t.Helper()
	nl, ok := Build(p)
	if !ok {
		t.Fatalf("%s: no library circuit", p.Name)
	}
	sp, err := chtobm.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.AMS035()
	for _, seed := range []int64{1, 2, 3} {
		s := sim.New(lib)
		s.AddNetlist(nl, p.Name, nil)
		d := sim.NewSpecDriver(s, sp, 0.6, seed, nil)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		d.Start(cycles)
		if err := s.Run(1e6, 1_000_000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if d.Err != nil {
			t.Fatalf("%s: %v", p.Name, d.Err)
		}
		if d.Cycles < cycles {
			t.Fatalf("%s: only %d cycles", p.Name, d.Cycles)
		}
	}
}

func TestSequencerCircuits(t *testing.T) {
	for n := 1; n <= 5; n++ {
		subs := make([]string, n)
		for i := range subs {
			subs[i] = fmt.Sprintf("A%d", i+1)
		}
		verify(t, chmap.Sequencer(fmt.Sprintf("seq%d", n), "P", subs...), 60)
	}
}

func TestCallCircuits(t *testing.T) {
	for n := 2; n <= 4; n++ {
		ins := make([]string, n)
		for i := range ins {
			ins[i] = fmt.Sprintf("I%d", i+1)
		}
		verify(t, chmap.Call(fmt.Sprintf("call%d", n), ins, "B"), 60)
	}
}

func TestConcurCircuits(t *testing.T) {
	for n := 2; n <= 4; n++ {
		subs := make([]string, n)
		for i := range subs {
			subs[i] = fmt.Sprintf("C%d", i+1)
		}
		verify(t, chmap.Concur(fmt.Sprintf("concur%d", n), "P", subs...), 60)
	}
}

func TestPassivatorCircuit(t *testing.T) {
	verify(t, chmap.Passivator("pass", "A", "B"), 60)
}

func TestForkCircuit(t *testing.T) {
	verify(t, chmap.Fork("fork3", "P", "O", 3), 60)
}

// Non-library shapes are rejected (the flow falls back to synthesis).
func TestUnknownShapes(t *testing.T) {
	dw := chmap.DecisionWait("dw", "a", []string{"i1", "i2"}, []string{"o1", "o2"})
	if _, ok := Build(dw); ok {
		t.Fatal("decision-wait should not match a library circuit")
	}
	body, err := ch.Parse(`(rep (enc-early (p-to-p passive a)
	    (seq (enc-early void (p-to-p active c)) (enc-early void (p-to-p active c)))))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Build(&ch.Program{Name: "merged", Body: body}); ok {
		t.Fatal("clustered controller should not match a library circuit")
	}
}

// The sequencer and concur circuits drive each sub-channel's request
// from its own gate, so a component that repeats a channel is left to
// synthesis instead of shipping a net with two drivers. The check
// allocates nothing.
func TestRepeatedChannelsDecline(t *testing.T) {
	for _, src := range []string{
		`(rep (enc-early (p-to-p passive e) (seq (p-to-p active t) (p-to-p active t))))`,
		`(rep (enc-early (p-to-p passive e) (seq (p-to-p active t) (seq (p-to-p active u) (p-to-p active t)))))`,
		`(rep (enc-early (p-to-p passive e) (seq (p-to-p active e) (p-to-p active t))))`,
		`(rep (enc-early (p-to-p passive e) (enc-middle (p-to-p active t) (p-to-p active t))))`,
	} {
		body, err := ch.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if nl, ok := Build(&ch.Program{Name: "rep", Body: body}); ok {
			t.Errorf("%s matched a library circuit: %v", src, nl.CellCounts())
		}
	}
	subs := []string{"a", "b", "c", "d"}
	if a := testing.AllocsPerRun(100, func() { distinct("p", subs) }); a != 0 {
		t.Errorf("distinct allocates %v times", a)
	}
}

// Hand circuits must be dramatically smaller than synthesized
// speed-mode controllers — the baseline-vs-optimized area asymmetry the
// paper reports.
func TestHandCellsAreSmall(t *testing.T) {
	lib := cell.AMS035()
	seq := chmap.Sequencer("seq2", "P", "A1", "A2")
	nl, ok := Build(seq)
	if !ok {
		t.Fatal("no circuit")
	}
	if a := nl.Area(lib); a > 450 {
		t.Fatalf("hand sequencer area %.0f, expected well under synthesized size", a)
	}
}
