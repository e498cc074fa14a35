// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure index (see EXPERIMENTS.md for measured-vs-paper values):
//
//	BenchmarkTable1            — operator/argument legality matrix
//	BenchmarkTable2            — four-phase expansions per operator
//	BenchmarkFig3*             — BM specs of sequencer/call/passivator
//	BenchmarkFig4              — activation channel removal example
//	BenchmarkFig5              — call distribution example
//	BenchmarkVerifyAllPairs    — Section 4.3 conformance experiment
//	BenchmarkTable3_*          — the four design flows (speed/area)
//	BenchmarkSynthesize*       — Minimalist-substitute ablations
package balsabm

import (
	"fmt"
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/techmap"
)

// BenchmarkTable1 evaluates the full Table 1 legality matrix.
func BenchmarkTable1(b *testing.B) {
	ops := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq, ch.SeqOv, ch.Mutex}
	acts := []ch.Activity{ch.Active, ch.Passive}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		legal := 0
		for _, op := range ops {
			for _, a := range acts {
				for _, c := range acts {
					if ch.Legal(op, a, c) {
						legal++
					}
				}
			}
		}
		if legal != 13 {
			b.Fatalf("Table 1 has %d legal cells, want 13", legal)
		}
	}
}

// BenchmarkTable2 computes every Table 2 expansion.
func BenchmarkTable2(b *testing.B) {
	srcs := []string{
		"(enc-early (p-to-p active a) (p-to-p active b))",
		"(enc-early (p-to-p passive a) (p-to-p active b))",
		"(enc-early (p-to-p passive a) (p-to-p passive b))",
		"(enc-late (p-to-p passive a) (p-to-p active b))",
		"(enc-late (p-to-p passive a) (p-to-p passive b))",
		"(enc-middle (p-to-p active a) (p-to-p active b))",
		"(enc-middle (p-to-p passive a) (p-to-p active b))",
		"(enc-middle (p-to-p passive a) (p-to-p passive b))",
		"(seq (p-to-p active a) (p-to-p active b))",
		"(seq (p-to-p passive a) (p-to-p active b))",
		"(seq (p-to-p passive a) (p-to-p passive b))",
		"(seq-ov (p-to-p active a) (p-to-p active b))",
		"(mutex (p-to-p passive a) (p-to-p passive b))",
	}
	exprs := make([]ch.Expr, len(srcs))
	for i, s := range srcs {
		e, err := ch.Parse(s)
		if err != nil {
			b.Fatal(err)
		}
		exprs[i] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			if _, err := ch.Expand(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func mustProgram(b *testing.B, name, src string) *CHProgram {
	b.Helper()
	body, err := ParseCH(src)
	if err != nil {
		b.Fatal(err)
	}
	return &CHProgram{Name: name, Body: body}
}

// Fig 3: the three modelling examples compile to their published specs.
func benchFig3(b *testing.B, name, src string, states int) {
	p := mustProgram(b, name, src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := CompileCH(p)
		if err != nil {
			b.Fatal(err)
		}
		if sp.NStates != states {
			b.Fatalf("%s: %d states, want %d", name, sp.NStates, states)
		}
	}
}

func BenchmarkFig3Sequencer(b *testing.B) {
	benchFig3(b, "sequencer",
		`(rep (enc-early (p-to-p passive P) (seq (p-to-p active A1) (p-to-p active A2))))`, 6)
}

func BenchmarkFig3Call(b *testing.B) {
	benchFig3(b, "call",
		`(rep (mutex (enc-early (p-to-p passive A1) (p-to-p active B))
		            (enc-early (p-to-p passive A2) (p-to-p active B))))`, 7)
}

func BenchmarkFig3Passivator(b *testing.B) {
	benchFig3(b, "passivator",
		`(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`, 2)
}

// Fig 4: decision-wait + sequencer merge into the 11-state controller.
func BenchmarkFig4(b *testing.B) {
	dw := mustProgram(b, "dw", `(rep (enc-early (p-to-p passive a1)
	    (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	           (enc-early (p-to-p passive i2) (p-to-p active o2)))))`)
	seq := mustProgram(b, "seq", `(rep (enc-early (p-to-p passive o2)
	    (seq (p-to-p active c1) (p-to-p active c2))))`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := &core.Netlist{Components: []*CHProgram{dw.Clone(), seq.Clone()}}
		out, _, err := Optimize(n)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := CompileCH(out.Components[0])
		if err != nil {
			b.Fatal(err)
		}
		if sp.NStates != 11 {
			b.Fatalf("%d states, want 11", sp.NStates)
		}
	}
}

// Fig 5: sequencer + call distribute into the 6-state controller.
func BenchmarkFig5(b *testing.B) {
	seq := mustProgram(b, "seq", `(rep (enc-early (p-to-p passive a)
	    (seq (p-to-p active b1) (p-to-p active b2))))`)
	call := mustProgram(b, "call", `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))))`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := &core.Netlist{Components: []*CHProgram{seq.Clone(), call.Clone()}}
		out, _, err := Optimize(n)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := CompileCH(out.Components[0])
		if err != nil {
			b.Fatal(err)
		}
		if sp.NStates != 6 {
			b.Fatalf("%d states, want 6", sp.NStates)
		}
	}
}

// Section 4.3: the full conformance verification grid.
func BenchmarkVerifyAllPairs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results := core.VerifyAllPairs()
		for pair, err := range results {
			if err != nil {
				b.Fatalf("%v: %v", pair, err)
			}
		}
	}
}

// Table 3: one benchmark per design row, running the complete two-arm
// flow (synthesis, mapping, audit, gate-level simulation).
func benchTable3(b *testing.B, name string) {
	d, err := DesignByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := RunDesign(d, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.SpeedImprovement() <= 0 || r.AreaOverhead() <= 0 {
			b.Fatalf("%s: improvement %.2f%%, overhead %.2f%%",
				name, r.SpeedImprovement(), r.AreaOverhead())
		}
		b.ReportMetric(r.SpeedImprovement(), "speedup%")
		b.ReportMetric(r.AreaOverhead(), "overhead%")
	}
}

func BenchmarkTable3_SystolicCounter(b *testing.B) { benchTable3(b, "systolic-counter") }
func BenchmarkTable3_WaggingRegister(b *testing.B) { benchTable3(b, "wagging-register") }
func BenchmarkTable3_Stack(b *testing.B)           { benchTable3(b, "stack") }
func BenchmarkTable3_SSEM(b *testing.B)            { benchTable3(b, "ssem") }

// The sampling mapped-logic audit in isolation: synthesize and map
// every optimized controller of a design once, then time
// techmap.CheckMapped alone — the hot path (92% of flow wall-clock
// before the compiled evaluator) that the bit-parallel engine targets.
// The flow's mapped-logic check is hazver; CheckMapped stays as the
// reference of its differential.
func benchCheckMapped(b *testing.B, name string) {
	d, err := DesignByName(name)
	if err != nil {
		b.Fatal(err)
	}
	lib := DefaultLibrary()
	opt, _, err := Optimize(d.Control())
	if err != nil {
		b.Fatal(err)
	}
	type pair struct {
		ctrl *Controller
		nl   *GateNetlist
	}
	var pairs []pair
	for _, comp := range opt.Components {
		sp, err := CompileCH(comp)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := Synthesize(sp)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := Map(ctrl, techmap.SpeedSplit, lib)
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, pair{ctrl, nl})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if err := techmap.CheckMapped(p.ctrl, p.nl, lib); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCheckMapped(b *testing.B) {
	for _, name := range []string{"systolic-counter", "wagging-register", "stack", "ssem"} {
		b.Run(name, func(b *testing.B) { benchCheckMapped(b, name) })
	}
}

// Worker scaling: the same two-arm flow at a single worker versus all
// cores. Results are byte-identical by construction (see
// flow.Options.Workers), so the reported speedup%/overhead% metrics
// must agree between the two variants; on a multicore host the
// wall-clock ratio shows the pool's gain.
func benchTable3Workers(b *testing.B, name string, workers int) {
	d, err := DesignByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := RunDesign(d, &FlowOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if r.SpeedImprovement() <= 0 || r.AreaOverhead() <= 0 {
			b.Fatalf("%s: improvement %.2f%%, overhead %.2f%%",
				name, r.SpeedImprovement(), r.AreaOverhead())
		}
		b.ReportMetric(r.SpeedImprovement(), "speedup%")
		b.ReportMetric(r.AreaOverhead(), "overhead%")
	}
}

func BenchmarkTable3_SSEM_Workers1(b *testing.B)   { benchTable3Workers(b, "ssem", 1) }
func BenchmarkTable3_SSEM_WorkersMax(b *testing.B) { benchTable3Workers(b, "ssem", 0) }

// Ablation: synthesis cost versus controller size (sequencer width).
func BenchmarkSynthesizeSequencerWidth(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("width%d", n), func(b *testing.B) {
			inner := "(p-to-p active A0)"
			for i := 1; i < n; i++ {
				inner = fmt.Sprintf("(seq (p-to-p active A%d) %s)", i, inner)
			}
			p := mustProgram(b, "seqN",
				fmt.Sprintf("(rep (enc-early (p-to-p passive P) %s))", inner))
			sp, err := CompileCH(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the clustering engine itself on the systolic counter
// netlist (T2 = split + T1 + restore check).
func BenchmarkClusterSystolicCounter(b *testing.B) {
	d, err := DesignByName("systolic-counter")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := d.Control()
		if _, _, err := Optimize(n); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the balsa-c front end on the SSEM source.
func BenchmarkCompileBalsaSSEM(b *testing.B) {
	src, err := designsBalsaSource("ssem")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileBalsa(src, "ssem"); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the cluster state bound (the paper's synthesis-run-time
// knob). Smaller bounds keep more, smaller controllers; the speedup
// shrinks accordingly while the baseline arm is unchanged.
func BenchmarkClusterLimitAblation(b *testing.B) {
	for _, limit := range []int{0, 12, 8} {
		b.Run(fmt.Sprintf("maxStates%d", limit), func(b *testing.B) {
			d, err := DesignByName("stack")
			if err != nil {
				b.Fatal(err)
			}
			opt := &FlowOptions{Cluster: ClusterOptions{MaxStates: limit}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := RunDesign(d, opt)
				if err != nil {
					b.Fatal(err)
				}
				if r.SpeedImprovement() <= 0 {
					b.Fatalf("limit %d: no improvement", limit)
				}
				b.ReportMetric(r.SpeedImprovement(), "speedup%")
				b.ReportMetric(float64(len(r.Opt.Controllers)), "clusters")
			}
		})
	}
}

// Ablation: the control-vs-datapath domination effect the paper uses to
// explain Table 3's spread ("if the circuit is control dominated then
// larger improvements can be expected"). Widening the stack's datapath
// while keeping the identical control must shrink the percentage gain.
func BenchmarkControlDominationAblation(b *testing.B) {
	for _, w := range []int{4, 8, 32} {
		b.Run(fmt.Sprintf("width%d", w), func(b *testing.B) {
			d := designsStackWithWidth(fmt.Sprintf("stack-w%d", w), w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := RunDesign(d, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SpeedImprovement(), "speedup%")
			}
		})
	}
}
