package flow

import (
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/techmap"
)

func parseComponent(t *testing.T, name, src string) *ch.Program {
	t.Helper()
	e, err := ch.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return &ch.Program{Name: name, Body: e}
}

// The flow must produce byte-identical results at any worker count:
// fan-out preserves input order and the synthesis cache only unifies
// exact rename-isomorphisms.
func TestWorkerCountDeterminism(t *testing.T) {
	for _, name := range []string{"systolic-counter", "wagging-register", "stack", "ssem"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := designs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := RunDesign(d, &Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := RunDesign(d, &Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if s, w := serial.DebugString(), wide.DebugString(); s != w {
				t.Errorf("Workers=1 and Workers=8 disagree:\n--- serial ---\n%s\n--- wide ---\n%s", s, w)
			}
		})
	}
}

// Rename-isomorphic components must synthesize exactly once; the
// reused results carry each component's own name and wires but the
// same numbers.
func TestSynthesisCacheDeduplicates(t *testing.T) {
	n := &core.Netlist{Components: []*ch.Program{
		parseComponent(t, "s1", `(rep (enc-early (p-to-p passive A) (seq (p-to-p active B) (p-to-p active C))))`),
		parseComponent(t, "s2", `(rep (enc-early (p-to-p passive D) (seq (p-to-p active E) (p-to-p active F))))`),
		parseComponent(t, "s3", `(rep (enc-early (p-to-p passive G) (seq (p-to-p active H) (p-to-p active I))))`),
	}}
	met := &Metrics{}
	mapped, results, err := checkedNetlist(n, techmap.SpeedSplit, &Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if met.CacheMisses.Load() != 1 || met.CacheHits.Load() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", met.CacheHits.Load(), met.CacheMisses.Load())
	}
	for i, want := range []string{"s1", "s2", "s3"} {
		if results[i].Name != want || mapped[i].Name != want {
			t.Fatalf("result %d named %s/%s, want %s", i, results[i].Name, mapped[i].Name, want)
		}
	}
	for i := 1; i < len(results); i++ {
		a, b := results[0], results[i]
		if a.States != b.States || a.Products != b.Products || a.Cells != b.Cells ||
			a.Area != b.Area || a.Critical != b.Critical {
			t.Fatalf("reused result differs from seeded one:\n%+v\n%+v", a, b)
		}
	}
	// The reused netlists must carry their own boundary wires.
	if !mapped[1].HasNet("D_r") || mapped[1].HasNet("A_r") {
		t.Fatalf("s2 netlist wires not renamed: %v", mapped[1].NetNames)
	}
}

// Components whose channel names sort differently relative to their
// structure are NOT rename-isomorphic (the synthesis variable order
// differs) and must not share a cache entry.
func TestSynthesisCacheRespectsWireOrder(t *testing.T) {
	n := &core.Netlist{Components: []*ch.Program{
		// Passive channel sorts after the active ones...
		parseComponent(t, "s1", `(rep (enc-early (p-to-p passive P) (seq (p-to-p active A1) (p-to-p active A2))))`),
		// ...and before them here.
		parseComponent(t, "s2", `(rep (enc-early (p-to-p passive B) (seq (p-to-p active C1) (p-to-p active C2))))`),
	}}
	met := &Metrics{}
	if _, _, err := checkedNetlist(n, techmap.SpeedSplit, &Options{Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.CacheMisses.Load() != 2 || met.CacheHits.Load() != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/2", met.CacheHits.Load(), met.CacheMisses.Load())
	}
}

// A real design reuses controller shapes heavily; the cache must see
// hits on SSEM (acceptance criterion: duplicated controllers
// synthesize once).
func TestSSEMCacheHits(t *testing.T) {
	d, err := designs.ByName("ssem")
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	if _, err := RunDesign(d, &Options{Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.CacheHits.Load() == 0 {
		t.Error("no synthesis cache hits on ssem")
	}
	if met.CacheMisses.Load() == 0 {
		t.Error("no synthesis cache misses recorded")
	}
}

// Options passed by the caller must never be mutated by the flow
// (defaults are applied to a copy).
func TestOptionsNotMutated(t *testing.T) {
	opt := &Options{}
	d, err := designs.ByName("stack")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDesign(d, opt); err != nil {
		t.Fatal(err)
	}
	if opt.Lib != nil || opt.TimeLimit != 0 || opt.EventLimit != 0 {
		t.Fatalf("caller's Options mutated: %+v", opt)
	}
}
