package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/hfmin"
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
	mapped, res, err := checkedNetlist(parseIncr(t, src), techmap.SpeedSplit,
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
	key := ControllerKey(techmap.SpeedSplit, canon.Digest())

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
	key := ControllerKey(techmap.SpeedSplit, canon.Digest())
	good, _ := ctl.GetController(key)
	e, err := decodeController(good)
	if err != nil {
		t.Fatal(err)
	}
	if e.unit.Netlist != e.netlist || len(e.unit.Vars) == 0 || len(e.unit.Transitions) != len(e.unit.Outputs)+e.unit.StateBits {
		t.Fatalf("decoded unit incomplete: %+v", e.unit)
	}
	for name, blob := range rejectedBlobs(t, good) {
		if _, err := decodeController(blob); err == nil {
			t.Errorf("%s: decode accepted the blob", name)
		}
	}

	// Through the flow: a cached blob without provenance is counted as
	// corrupt and resynthesized, with byte-identical output.
	ctl.PutController(key, tamperBlob(t, good, func(b map[string]any) { delete(b, "transitions") }))
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

// tamperBlob returns a controller blob with edit applied to its JSON
// object.
func tamperBlob(t testing.TB, blob []byte, edit func(b map[string]any)) []byte {
	t.Helper()
	var b map[string]any
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	edit(b)
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rejectedBlobs tampers a minimized controller's blob into the shapes
// decodeController must reject, keyed by what is wrong with each.
func rejectedBlobs(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	e, err := decodeController(good)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(edit func(b map[string]any)) []byte { return tamperBlob(t, good, edit) }
	firstOutput := e.unit.Outputs[0]
	return map[string][]byte{
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
		"negative state bits":          tamper(func(b map[string]any) { b["stateBits"] = -1 }),
		"start point out of range": tamper(func(b map[string]any) {
			firstTriple(b, firstOutput)[0] = len(b["points"].([]any))
		}),
		"end point out of range": tamper(func(b map[string]any) {
			firstTriple(b, firstOutput)[1] = len(b["points"].([]any))
		}),
		"negative start point": tamper(func(b map[string]any) { firstTriple(b, firstOutput)[0] = -1 }),
		"negative end point":   tamper(func(b map[string]any) { firstTriple(b, firstOutput)[1] = -1 }),
		"value 4":              tamper(func(b map[string]any) { firstTriple(b, firstOutput)[2] = 4 }),
		"partial triple": tamper(func(b map[string]any) {
			trs := b["transitions"].(map[string]any)
			trs[firstOutput] = append(trs[firstOutput].([]any), 0)
		}),
		"non-binary point": tamper(func(b map[string]any) {
			pts := b["points"].([]any)
			pts[0] = "2" + pts[0].(string)[1:]
		}),
		"point one bit short": tamper(func(b map[string]any) {
			pts := b["points"].([]any)
			pts[0] = pts[0].(string)[1:]
		}),
		"hand library with points": tamper(func(b map[string]any) {
			b["handLibrary"] = true
			delete(b, "vars")
			delete(b, "outputs")
			delete(b, "stateBits")
			delete(b, "transitions")
		}),
	}
}

// firstTriple returns the first transition triple of function fn in a
// blob's JSON object, for tampering in place.
func firstTriple(b map[string]any, fn string) []any {
	return b["transitions"].(map[string]any)[fn].([]any)[:3]
}

// stateBitsBlob is a minimized controller's blob, small and otherwise
// well formed, that claims the given number of state bits for one
// output listed twice.
func stateBitsBlob(t testing.TB, bits int) []byte {
	t.Helper()
	nl, err := gates.EncodeJSON(gates.New("c"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"wires":["a"],"result":{},"netlist":%s,"vars":["a"],"outputs":["b","b"],"stateBits":%d,"transitions":{"b":[]}}`, nl, bits))
}

// The state-bit count a blob claims is bounded by its transitions
// entries, one per state bit: a huge count is rejected before the
// decode allocates anything sized by it, and a negative one cannot
// cancel a duplicated output out of the function count.
func TestControllerBlobStateBitsBound(t *testing.T) {
	for _, bits := range []int{1 << 30, -1} {
		blob := stateBitsBlob(t, bits)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeController(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("stateBits %d: decode accepted %s", bits, blob)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("stateBits %d: decoding a %d-byte blob allocated %d bytes", bits, len(blob), n)
		}
	}
}

// FuzzDecodeController feeds controller blobs, the artifacts the
// controller cache reads back (from a daemon's store, say), through
// decodeController. No blob may panic the decoder, and one that
// decodes must survive a round trip: re-encoded, it decodes to an
// entry that encodes to the same bytes. The seeds are every blob a
// cold Table 3 run writes, both arms, and the shapes the decoder must
// reject.
func FuzzDecodeController(f *testing.F) {
	ctl := NewMemoryControllerCache()
	if _, err := RunAll(&Options{Controllers: ctl}); err != nil {
		f.Fatal(err)
	}
	keys := make([]string, 0, ctl.Len())
	for k := range ctl.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var minimized []byte
	for _, k := range keys {
		blob := ctl.m[k]
		f.Add(blob)
		if minimized == nil && !bytes.Contains(blob, []byte(`"handLibrary":true`)) {
			minimized = blob
		}
	}
	for _, blob := range rejectedBlobs(f, minimized) {
		f.Add(blob)
	}
	f.Add(stateBitsBlob(f, 1<<30))
	f.Add(stateBitsBlob(f, -1))
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := decodeController(blob)
		if err != nil {
			return
		}
		again, err := encodeController(e)
		if err != nil {
			t.Fatalf("decoded entry does not encode: %v", err)
		}
		e2, err := decodeController(again)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v\n%s", err, again)
		}
		if third, err := encodeController(e2); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("round trip changed the entry (%v):\n%s\n%s", err, again, third)
		}
	})
}

// A hand-library controller's blob says so explicitly and carries no
// provenance; it round-trips to a unit hazver counts as skipped.
func TestControllerBlobHandLibrary(t *testing.T) {
	n := parseIncr(t, incrSource)
	ctl := NewMemoryControllerCache()
	if _, _, err := checkedNetlist(n, techmap.AreaShared, &Options{Controllers: ctl}); err != nil {
		t.Fatal(err)
	}
	canon, ok := ch.CanonicalizeProgram(n.Components[0])
	if !ok {
		t.Fatal("stage1 failed to canonicalize")
	}
	blob, ok := ctl.GetController(ControllerKey(techmap.AreaShared, canon.Digest()))
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

// Blobs written under the previous key formats (no blob version tag,
// v2 with its audit bit, and v3 with a minterm string per transition)
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
		for _, oldKey := range []string{
			fmt.Sprintf("ctl|%s|audit=%t|%s", techmap.SpeedSplit, true, canon.Digest()),
			fmt.Sprintf("ctl|v2|%s|audit=%t|%s", techmap.SpeedSplit, true, canon.Digest()),
			fmt.Sprintf("ctl|v3|%s|%s", techmap.SpeedSplit, canon.Digest()),
		} {
			ctl.PutController(oldKey, []byte(`{"wires":[],"result":{},"netlist":{}}`))
		}
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
	blob, okGet := ctl.GetController(ControllerKey(techmap.SpeedSplit, canon.Digest()))
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

// stackBlobs returns the controller blobs a cold run of the stack
// design writes, both arms, in key order.
func stackBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	d, err := designs.ByName("stack")
	if err != nil {
		tb.Fatal(err)
	}
	ctl := NewMemoryControllerCache()
	if _, err := RunDesign(d, &Options{Controllers: ctl}); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, ctl.Len())
	for k := range ctl.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	blobs := make([][]byte, len(keys))
	for i, k := range keys {
		blobs[i] = ctl.m[k]
	}
	return blobs
}

// largestMinimized returns the largest blob of a minimized controller.
func largestMinimized(tb testing.TB, blobs [][]byte) []byte {
	tb.Helper()
	var largest []byte
	for _, blob := range blobs {
		if !bytes.Contains(blob, []byte(`"handLibrary":true`)) && len(blob) > len(largest) {
			largest = blob
		}
	}
	if largest == nil {
		tb.Fatal("no minimized controller blob")
	}
	return largest
}

// Each transition minterm is written once, as a shared point. The
// stack's largest minimized blob, a clustered controller with 17
// functions over 26 variables, took 68,935 bytes when every transition
// carried its start and end minterms as strings.
func TestControllerBlobSize(t *testing.T) {
	blob := largestMinimized(t, stackBlobs(t))
	if len(blob) > 16<<10 {
		t.Fatalf("largest stack blob is %d bytes, want at most %d", len(blob), 16<<10)
	}
	e, err := decodeController(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.unit.Transitions); n != 17 {
		t.Fatalf("largest stack blob has %d functions, want 17", n)
	}
}

// Points are numbered in first use over the functions sorted by name,
// so the encoding does not depend on the order a transition map was
// built in.
func TestControllerBlobDeterministic(t *testing.T) {
	blob := largestMinimized(t, stackBlobs(t))
	e, err := decodeController(blob)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]string, 0, len(e.unit.Transitions))
	for fn := range e.unit.Transitions {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
		trs := make(map[string][]hfmin.Transition, len(fns))
		for _, fn := range fns {
			trs[fn] = e.unit.Transitions[fn]
		}
		c := *e
		c.unit.Transitions = trs
		got, err := encodeController(&c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("trial %d: insertion order %v changed the encoding", trial, fns)
		}
	}
}

// BenchmarkControllerBlob is the serialization the warm edit loop pays
// per cached controller: a decode and an encode of each of the stack's
// blobs.
func BenchmarkControllerBlob(b *testing.B) {
	blobs := stackBlobs(b)
	size := 0
	for _, blob := range blobs {
		size += len(blob)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blob := range blobs {
			e, err := decodeController(blob)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := encodeController(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(blobs)), "blobs")
	b.ReportMetric(float64(size), "blob-bytes")
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

// ControllerKey must separate mapping mode and digest — a blob
// synthesized under one configuration must never serve another.
func TestControllerKeySeparation(t *testing.T) {
	keys := map[string]bool{
		ControllerKey(techmap.SpeedSplit, "d1"): true,
		ControllerKey(techmap.AreaShared, "d1"): true,
		ControllerKey(techmap.SpeedSplit, "d2"): true,
	}
	if len(keys) != 3 {
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
