package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/techmap"
)

// incrSource is a two-controller netlist whose components share no
// canonical shape, so reuse accounting is unambiguous.
const incrSource = `
(program stage1
  (rep
    (enc-early (p-to-p passive activate)
      (seq (p-to-p active left)
           (p-to-p active right)))))
(program stage2
  (rep
    (enc-late (p-to-p passive go)
      (seq-ov (p-to-p active a)
              (p-to-p active b)))))
`

// incrEdited is incrSource with stage2's protocol changed: stage1's
// canonical subtree is untouched, stage2's is not.
const incrEdited = `
(program stage1
  (rep
    (enc-early (p-to-p passive activate)
      (seq (p-to-p active left)
           (p-to-p active right)))))
(program stage2
  (rep
    (enc-middle (p-to-p passive go)
      (seq-ov (p-to-p active a)
              (p-to-p active b)))))
`

func parseIncr(t *testing.T, src string) *core.Netlist {
	t.Helper()
	n, err := core.ParseNetlist(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// synthAll synthesizes src speed-split with the given cache attached
// (nil for none) and returns the mapped netlists in their deterministic
// serialized form, the controller summaries, and the run's metrics.
func synthAll(t *testing.T, src string, ctl ControllerCache, workers int) ([][]byte, []ControllerResult, *Metrics) {
	t.Helper()
	met := &Metrics{}
	mapped, res, err := SynthesizeNetlist(parseIncr(t, src), techmap.SpeedSplit,
		&Options{Metrics: met, Controllers: ctl, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, len(mapped))
	for i, nl := range mapped {
		enc[i], err = gates.EncodeJSON(nl)
		if err != nil {
			t.Fatal(err)
		}
	}
	return enc, res, met
}

// The tentpole invariant: a warm controller cache changes nothing but
// the metrics. Cold-with-cache, warm-with-cache, and no-cache runs all
// emit byte-identical netlists and equal reports, at any worker count.
func TestIncrementalWarmCacheByteIdentical(t *testing.T) {
	scratch, scratchRes, scratchMet := synthAll(t, incrSource, nil, 0)
	if r := scratchMet.ControllersReused.Load() + scratchMet.ControllersResynthesized.Load(); r != 0 {
		t.Fatalf("cacheless run bumped incremental counters: %d", r)
	}

	ctl := NewMemoryControllerCache()
	cold, coldRes, coldMet := synthAll(t, incrSource, ctl, 0)
	if got := coldMet.ControllersResynthesized.Load(); got != 2 {
		t.Fatalf("cold run resynthesized %d controllers, want 2", got)
	}
	if got := coldMet.ControllersReused.Load(); got != 0 {
		t.Fatalf("cold run reused %d controllers, want 0", got)
	}
	if ctl.Len() != 2 {
		t.Fatalf("cache holds %d controllers after cold run, want 2", ctl.Len())
	}

	for _, workers := range []int{1, 4} {
		warm, warmRes, warmMet := synthAll(t, incrSource, ctl, workers)
		if got := warmMet.ControllersReused.Load(); got != 2 {
			t.Fatalf("j=%d: warm run reused %d controllers, want 2", workers, got)
		}
		if got := warmMet.ControllersResynthesized.Load(); got != 0 {
			t.Fatalf("j=%d: warm run resynthesized %d controllers, want 0", workers, got)
		}
		for i := range scratch {
			if !bytes.Equal(scratch[i], cold[i]) || !bytes.Equal(scratch[i], warm[i]) {
				t.Fatalf("j=%d: controller %d differs across scratch/cold/warm runs", workers, i)
			}
		}
		if !reflect.DeepEqual(scratchRes, coldRes) || !reflect.DeepEqual(scratchRes, warmRes) {
			t.Fatalf("j=%d: controller reports differ across runs", workers)
		}
	}
}

// An edit to one controller resynthesizes exactly that controller; the
// other splices in from the cache, and the merged result still matches
// a from-scratch run of the edited netlist.
func TestIncrementalSingleEditReusesRest(t *testing.T) {
	ctl := NewMemoryControllerCache()
	synthAll(t, incrSource, ctl, 0) // seed with the base design

	scratch, scratchRes, _ := synthAll(t, incrEdited, nil, 0)
	incr, incrRes, met := synthAll(t, incrEdited, ctl, 0)
	if got := met.ControllersReused.Load(); got != 1 {
		t.Fatalf("reused %d controllers, want 1 (stage1)", got)
	}
	if got := met.ControllersResynthesized.Load(); got != 1 {
		t.Fatalf("resynthesized %d controllers, want 1 (stage2)", got)
	}
	for i := range scratch {
		if !bytes.Equal(scratch[i], incr[i]) {
			t.Fatalf("controller %d differs from scratch after incremental edit", i)
		}
	}
	if !reflect.DeepEqual(scratchRes, incrRes) {
		t.Fatalf("reports differ: %+v vs %+v", scratchRes, incrRes)
	}
}

// A cached controller crosses designs: a component with different
// channel and component names but the same canonical shape reuses the
// blob, and Rename gives it the new design's wire names. The renamed
// channels (go, mid, out) keep the lexicographic order of the
// originals (activate, left, right) — the Key's #order condition —
// since the synthesis pipeline orders variables by wire-name sort.
func TestIncrementalCrossDesignReuse(t *testing.T) {
	const other = `
(program renamed
  (rep
    (enc-early (p-to-p passive go)
      (seq (p-to-p active mid)
           (p-to-p active out)))))
`
	ctl := NewMemoryControllerCache()
	synthAll(t, incrSource, ctl, 0) // seeds stage1's shape, among others

	scratch, scratchRes, _ := synthAll(t, other, nil, 0)
	incr, incrRes, met := synthAll(t, other, ctl, 0)
	if got := met.ControllersReused.Load(); got != 1 {
		t.Fatalf("cross-design reuse: reused %d, want 1", got)
	}
	if !bytes.Equal(scratch[0], incr[0]) || !reflect.DeepEqual(scratchRes, incrRes) {
		t.Fatal("cross-design reuse altered the synthesized controller")
	}
	if incrRes[0].Name != "renamed" {
		t.Fatalf("spliced controller kept name %q, want renamed", incrRes[0].Name)
	}
}

// A corrupt cached blob must degrade to resynthesis (never an error or
// wrong output) and be overwritten with a good one.
func TestIncrementalCorruptBlobFallsThrough(t *testing.T) {
	n := parseIncr(t, incrSource)
	canon, ok := ch.CanonicalizeProgram(n.Components[0])
	if !ok {
		t.Fatal("stage1 failed to canonicalize")
	}
	key := ControllerKey(techmap.SpeedSplit, true, canon.Digest())

	ctl := NewMemoryControllerCache()
	ctl.PutController(key, []byte("not json"))

	scratch, _, _ := synthAll(t, incrSource, nil, 0)
	incr, _, met := synthAll(t, incrSource, ctl, 0)
	if got := met.ControllersReused.Load(); got != 0 {
		t.Fatalf("corrupt blob counted as reuse: %d", got)
	}
	if got := met.ControllersResynthesized.Load(); got != 2 {
		t.Fatalf("resynthesized %d, want 2", got)
	}
	if got := met.ControllersCorrupt.Load(); got != 1 {
		t.Fatalf("corrupt blobs counted %d, want 1", got)
	}
	if !strings.Contains(met.String(), "incremental: 0 controllers reused, 2 resynthesized, 1 corrupt\n") {
		t.Fatalf("-stats misses the corrupt count:\n%s", met.String())
	}
	for i := range scratch {
		if !bytes.Equal(scratch[i], incr[i]) {
			t.Fatalf("controller %d differs after corrupt-blob fallthrough", i)
		}
	}
	blob, okGet := ctl.GetController(key)
	if !okGet {
		t.Fatal("resynthesis did not write the blob back")
	}
	if _, err := decodeController(blob); err != nil {
		t.Fatalf("overwritten blob still corrupt: %v", err)
	}
}

// A blob that decodes as JSON but does not carry a minimized
// controller's complete verification provenance is rejected, so the
// flow counts it as corrupt instead of splicing in a netlist hazver
// could not check.
func TestControllerBlobRequiresProvenance(t *testing.T) {
	ctl := NewMemoryControllerCache()
	synthAll(t, incrSource, ctl, 0)
	n := parseIncr(t, incrSource)
	canon, ok := ch.CanonicalizeProgram(n.Components[0])
	if !ok {
		t.Fatal("stage1 failed to canonicalize")
	}
	key := ControllerKey(techmap.SpeedSplit, true, canon.Digest())
	good, _ := ctl.GetController(key)
	e, err := decodeController(good)
	if err != nil {
		t.Fatal(err)
	}
	if e.unit.Netlist != e.netlist || len(e.unit.Vars) == 0 || len(e.unit.Transitions) != len(e.unit.Outputs)+e.unit.StateBits {
		t.Fatalf("decoded unit incomplete: %+v", e.unit)
	}
	tamper := func(edit func(b map[string]any)) []byte {
		var b map[string]any
		if err := json.Unmarshal(good, &b); err != nil {
			t.Fatal(err)
		}
		edit(b)
		out, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	firstOutput := e.unit.Outputs[0]
	for name, blob := range map[string][]byte{
		"no provenance": tamper(func(b map[string]any) {
			delete(b, "vars")
			delete(b, "outputs")
			delete(b, "stateBits")
			delete(b, "transitions")
		}),
		"missing function": tamper(func(b map[string]any) {
			delete(b["transitions"].(map[string]any), firstOutput)
		}),
		"extra state bit":              tamper(func(b map[string]any) { b["stateBits"] = e.unit.StateBits + 1 }),
		"short minterm":                tamper(func(b map[string]any) { b["vars"] = append(b["vars"].([]any), "extra") }),
		"hand library with provenance": tamper(func(b map[string]any) { b["handLibrary"] = true }),
	} {
		if _, err := decodeController(blob); err == nil {
			t.Errorf("%s: decode accepted the blob", name)
		}
	}

	// Through the flow: a cached blob without provenance is counted as
	// corrupt and resynthesized, with byte-identical output.
	ctl.PutController(key, tamper(func(b map[string]any) { delete(b, "transitions") }))
	scratch, _, _ := synthAll(t, incrSource, nil, 0)
	incr, _, met := synthAll(t, incrSource, ctl, 0)
	if met.ControllersCorrupt.Load() != 1 || met.ControllersReused.Load() != 1 || met.ControllersResynthesized.Load() != 1 {
		t.Fatalf("counters: %d corrupt, %d reused, %d resynthesized; want 1/1/1",
			met.ControllersCorrupt.Load(), met.ControllersReused.Load(), met.ControllersResynthesized.Load())
	}
	for i := range scratch {
		if !bytes.Equal(scratch[i], incr[i]) {
			t.Fatalf("controller %d differs after the provenance-less blob", i)
		}
	}
}

// A hand-library controller's blob says so explicitly and carries no
// provenance; it round-trips to a unit hazver counts as skipped.
func TestControllerBlobHandLibrary(t *testing.T) {
	n := parseIncr(t, incrSource)
	ctl := NewMemoryControllerCache()
	if _, _, err := SynthesizeNetlist(n, techmap.AreaShared, &Options{Controllers: ctl}); err != nil {
		t.Fatal(err)
	}
	canon, ok := ch.CanonicalizeProgram(n.Components[0])
	if !ok {
		t.Fatal("stage1 failed to canonicalize")
	}
	blob, ok := ctl.GetController(ControllerKey(techmap.AreaShared, true, canon.Digest()))
	if !ok {
		t.Fatal("no baseline blob for stage1")
	}
	if !bytes.Contains(blob, []byte(`"handLibrary":true`)) || bytes.Contains(blob, []byte(`"transitions"`)) {
		t.Fatalf("stage1 is a hand-library sequencer; blob: %s", blob)
	}
	e, err := decodeController(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e.unit.Netlist != nil {
		t.Fatalf("hand-library unit carries a netlist to verify: %+v", e.unit)
	}
}

// Blobs written under the previous key format (no blob version tag)
// are never looked up: an old ctlrefs/ entry is a miss, not a decode
// failure.
func TestControllerKeyVersionedMiss(t *testing.T) {
	n := parseIncr(t, incrSource)
	ctl := NewMemoryControllerCache()
	for _, comp := range n.Components {
		canon, ok := ch.CanonicalizeProgram(comp)
		if !ok {
			t.Fatalf("%s failed to canonicalize", comp.Name)
		}
		oldKey := fmt.Sprintf("ctl|%s|audit=%t|%s", techmap.SpeedSplit, true, canon.Digest())
		ctl.PutController(oldKey, []byte(`{"wires":[],"result":{},"netlist":{}}`))
	}
	_, _, met := synthAll(t, incrSource, ctl, 0)
	if met.ControllersCorrupt.Load() != 0 || met.ControllersReused.Load() != 0 || met.ControllersResynthesized.Load() != 2 {
		t.Fatalf("counters: %d corrupt, %d reused, %d resynthesized; want 0/0/2",
			met.ControllersCorrupt.Load(), met.ControllersReused.Load(), met.ControllersResynthesized.Load())
	}
}

// The blob encoding round-trips exactly and re-encodes to the same
// bytes, which is what lets identical syntheses dedupe in the
// content-addressed store.
func TestControllerBlobRoundTrip(t *testing.T) {
	ctl := NewMemoryControllerCache()
	synthAll(t, incrSource, ctl, 0)
	n := parseIncr(t, incrSource)
	canon, ok := ch.CanonicalizeProgram(n.Components[1])
	if !ok {
		t.Fatal("stage2 failed to canonicalize")
	}
	blob, okGet := ctl.GetController(ControllerKey(techmap.SpeedSplit, true, canon.Digest()))
	if !okGet {
		t.Fatal("stage2 blob missing after seeding run")
	}
	e, err := decodeController(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.wires) == 0 || e.netlist == nil {
		t.Fatalf("decoded entry incomplete: %d wires", len(e.wires))
	}
	again, err := encodeController(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("blob encoding is not stable across a round trip")
	}
}

// Two rename-isomorphic components in one netlist share a memo entry;
// whichever seeds it, each spliced output must equal a solo direct
// synthesis of that component (addDerivedRenames carries the wire
// rename into techmap's helper nets). This pins the splicing path
// independent of seeding order, worker count, and cache temperature.
func TestIsomorphSpliceMatchesDirect(t *testing.T) {
	const twin = `
(program one
  (rep
    (enc-early (p-to-p passive act)
      (seq (p-to-p active lft)
           (p-to-p active rgt)))))
(program two
  (rep
    (enc-early (p-to-p passive go)
      (seq (p-to-p active mid)
           (p-to-p active out)))))
`
	soloOne, _, _ := synthAll(t, twin[:strings.Index(twin, "(program two")], nil, 0)
	soloTwo, _, _ := synthAll(t, twin[strings.Index(twin, "(program two"):], nil, 0)
	for trial := 0; trial < 10; trial++ {
		both, _, met := synthAll(t, twin, nil, 8)
		if met.CacheHits.Load() != 1 {
			t.Fatalf("trial %d: twins did not share the memo entry", trial)
		}
		if !bytes.Equal(both[0], soloOne[0]) {
			t.Fatalf("trial %d: component one differs from its solo synthesis", trial)
		}
		if !bytes.Equal(both[1], soloTwo[0]) {
			t.Fatalf("trial %d: component two differs from its solo synthesis", trial)
		}
	}
}

// ControllerKey must separate mapping mode, audit setting, and digest —
// a blob synthesized under one configuration must never serve another.
func TestControllerKeySeparation(t *testing.T) {
	keys := map[string]bool{
		ControllerKey(techmap.SpeedSplit, true, "d1"):  true,
		ControllerKey(techmap.SpeedSplit, false, "d1"): true,
		ControllerKey(techmap.AreaShared, true, "d1"):  true,
		ControllerKey(techmap.SpeedSplit, true, "d2"):  true,
	}
	if len(keys) != 4 {
		t.Fatalf("key collisions: %v", keys)
	}
}

func TestMemoryControllerCache(t *testing.T) {
	c := NewMemoryControllerCache()
	if _, ok := c.GetController("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.PutController("k", []byte("v"))
	if blob, ok := c.GetController("k"); !ok || string(blob) != "v" {
		t.Fatalf("get after put: %q/%v", blob, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

func TestPlanIncremental(t *testing.T) {
	base := parseIncr(t, incrSource)
	edited := parseIncr(t, incrEdited)
	p := PlanIncremental(base, edited)
	if !reflect.DeepEqual(p.Reused, []string{"stage1"}) {
		t.Fatalf("reused %v, want [stage1]", p.Reused)
	}
	if !reflect.DeepEqual(p.Resynthesize, []string{"stage2"}) {
		t.Fatalf("resynthesize %v, want [stage2]", p.Resynthesize)
	}
	if !reflect.DeepEqual(p.BaseOnly, []string{"stage2"}) {
		t.Fatalf("base-only %v, want [stage2]", p.BaseOnly)
	}
	if got := p.String(); got != "incremental plan: 1 reuse, 1 resynthesize, 1 base-only" {
		t.Fatalf("plan string %q", got)
	}
	// Identity diff: everything reuses.
	same := PlanIncremental(base, parseIncr(t, incrSource))
	if len(same.Resynthesize) != 0 || len(same.BaseOnly) != 0 || len(same.Reused) != 2 {
		t.Fatalf("identity plan: %+v", same)
	}
}
