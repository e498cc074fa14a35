package flow

import (
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/techmap"
)

// incrEditBody is the replacement controller body for the benchmark's
// one-controller edit. It is deliberately a shape no Table 3 design
// contains (the designs are sequencer/call trees), so the edited
// component can never be served from the warmed cache by accident.
const incrEditBody = `(rep (enc-middle (p-to-p passive p0)
    (p-to-p passive p1)))`

// editOneController returns a copy of the netlist with the last
// component's body replaced — the canonical one-controller edit of the
// edit-compile loop.
func editOneController(b *testing.B, n *core.Netlist) *core.Netlist {
	b.Helper()
	body, err := ch.Parse(incrEditBody)
	if err != nil {
		b.Fatal(err)
	}
	out := &core.Netlist{Components: append([]*ch.Program(nil), n.Components...)}
	last := len(out.Components) - 1
	out.Components[last] = &ch.Program{Name: out.Components[last].Name, Body: body}
	return out
}

// cloneCache snapshots a seeded cache so every benchmark iteration
// starts from the same warm state (the edited shape written during one
// iteration must not leak into the next).
func cloneCache(src *MemoryControllerCache) *MemoryControllerCache {
	dst := NewMemoryControllerCache()
	src.mu.Lock()
	for k, v := range src.m {
		dst.m[k] = v
	}
	src.mu.Unlock()
	return dst
}

// BenchmarkIncrementalEdit measures the edit-compile loop the
// incremental tier targets: one controller of a Table 3 design is
// edited and the design resynthesized, cold (empty controller cache —
// every shape synthesized) versus warm (cache seeded by the base
// design's synthesis — only the edited shape synthesized). Both arms
// run the checked arm at the post-clustering grain, exactly what the
// daemon's opt arm runs after clustering, so the bmlint, netlint and
// hazver gates are timed too, and produce byte-identical netlists; the
// warm arm additionally reports how many distinct shapes it spliced
// from the cache.
func BenchmarkIncrementalEdit(b *testing.B) {
	for _, d := range designs.All() {
		// The cluster state bound keeps every design at several clustered
		// controllers (unbounded clustering collapses the systolic
		// counter to one, leaving a one-controller edit nothing to
		// reuse), matching the paper's synthesis-run-time knob.
		clustered, _, err := core.OptimizeOpt(d.Control(), core.Options{MaxStates: 12})
		if err != nil {
			b.Fatal(err)
		}
		edited := editOneController(b, clustered)
		seed := NewMemoryControllerCache()
		if _, _, err := checkedNetlist(clustered, techmap.SpeedSplit,
			&Options{Controllers: seed}); err != nil {
			b.Fatal(err)
		}
		// One worker pins the measurement to the synthesis work itself
		// (results are identical at any setting); otherwise the cold
		// arm's ns/op depends on how many shapes the host can run in
		// parallel rather than on how much work the cache avoided.
		opts := func(ctl ControllerCache, met *Metrics) *Options {
			return &Options{Controllers: ctl, Metrics: met, Workers: 1}
		}
		for _, warm := range []bool{false, true} {
			name := d.Name + "/cold"
			if warm {
				name = d.Name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var reused, resynth int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ctl := NewMemoryControllerCache()
					if warm {
						ctl = cloneCache(seed)
					}
					met := &Metrics{}
					b.StartTimer()
					if _, _, err := checkedNetlist(edited, techmap.SpeedSplit,
						opts(ctl, met)); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					reused = met.ControllersReused.Load()
					resynth = met.ControllersResynthesized.Load()
					if warm && reused == 0 {
						b.Fatal("warm run reused nothing")
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(reused), "reused")
				b.ReportMetric(float64(resynth), "resynth")
			})
		}
	}
}
