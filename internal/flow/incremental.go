// Incremental resynthesis: a controller-grain artifact cache keyed by
// canonical subtree digests, so an edit-compile loop resynthesizes
// only the controllers whose canonical form actually changed and
// splices every untouched controller's netlist back in via
// gates.Netlist.Rename. The merged result is byte-identical to a
// from-scratch run — the canonical key (see ch.Canonicalize)
// guarantees a cached netlist is an exact wire-rename of what direct
// synthesis would have produced, and the cached blob round-trips the
// controller report exactly (Go's float64 JSON encoding is lossless).
package flow

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hfmin"
	"balsabm/internal/techmap"
)

// ControllerCache is the controller-grain artifact tier consulted by
// the flow's synthesis cache: blobs of completed controller syntheses
// keyed by canonical subtree digest, surviving across runs (and, when
// backed by the durable store, across restarts and designs). Both
// methods are best-effort — a miss or a failed put costs one
// resynthesis, never correctness — and must be safe for concurrent
// use. *store.Store satisfies it.
type ControllerCache interface {
	// GetController returns the blob stored under key, if any.
	GetController(key string) ([]byte, bool)
	// PutController stores a blob under key.
	PutController(key string, blob []byte)
}

// MemoryControllerCache is the in-process ControllerCache: a plain
// keyed blob map. It is what a store-less daemon attaches to its jobs
// so controller reuse still works across submissions within one
// process lifetime.
type MemoryControllerCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemoryControllerCache returns an empty in-memory cache.
func NewMemoryControllerCache() *MemoryControllerCache {
	return &MemoryControllerCache{m: map[string][]byte{}}
}

// GetController returns the blob stored under key, if any.
func (c *MemoryControllerCache) GetController(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, ok := c.m[key]
	return blob, ok
}

// PutController stores a blob under key.
func (c *MemoryControllerCache) PutController(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = blob
}

// Len returns the number of cached controllers.
func (c *MemoryControllerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// ControllerKey is the cache key of one controller synthesis: the
// canonical subtree digest qualified by everything else that affects
// the synthesized netlist — the mapping mode — and by the blob format
// version, so blobs of an older format are misses rather than decode
// failures. Wire names are deliberately absent: they are exactly what
// Rename substitutes on reuse, which is how a cached controller
// crosses designs.
func ControllerKey(mode techmap.Mode, digest string) string {
	return fmt.Sprintf("ctl|%s|%s|%s", controllerBlobVersion, mode, digest)
}

// controllerBlobVersion tags the controllerBlob format inside
// ControllerKey. v2 added the verification provenance; v3 dropped the
// audit bit from the key, so refs written under v2 miss.
const controllerBlobVersion = "v3"

// controllerBlob is the durable form of one synthesized controller:
// the seeding component's wires in canonical channel order (what
// WireRenames maps from), its report, its mapped netlist, and the
// burst provenance hazver verifies that netlist against — so a
// controller spliced in from the cache is checked exactly as a fresh
// synthesis would be. A hand-library circuit has no provenance and
// says so explicitly. The encoding is deterministic (JSON sorts map
// keys), so identical syntheses dedupe in the content-addressed store.
type controllerBlob struct {
	Wires       []string                    `json:"wires"`
	Result      ControllerResult            `json:"result"`
	Netlist     json.RawMessage             `json:"netlist"`
	HandLibrary bool                        `json:"handLibrary,omitempty"`
	Vars        []string                    `json:"vars,omitempty"`
	Outputs     []string                    `json:"outputs,omitempty"`
	StateBits   int                         `json:"stateBits,omitempty"`
	Transitions map[string][]blobTransition `json:"transitions,omitempty"`
}

// blobTransition is one hfmin.Transition with its minterms written as
// '0'/'1' strings over the controller's Vars.
type blobTransition struct {
	Start string `json:"start"`
	End   string `json:"end"`
	From  bool   `json:"from"`
	To    bool   `json:"to"`
}

func bitString(bits []bool) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// parseBits reads a '0'/'1' string of exactly n bits.
func parseBits(s string, n int) ([]bool, error) {
	if len(s) != n {
		return nil, fmt.Errorf("minterm %q has %d bits, want %d", s, len(s), n)
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		switch s[i] {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("minterm %q is not binary", s)
		}
	}
	return out, nil
}

// encodeController serializes a cache entry.
func encodeController(e *synthEntry) ([]byte, error) {
	nl, err := gates.EncodeJSON(e.netlist)
	if err != nil {
		return nil, err
	}
	b := controllerBlob{Wires: e.wires, Result: e.res, Netlist: nl}
	u := e.unit
	if u.Netlist == nil {
		b.HandLibrary = true
	} else {
		b.Vars, b.Outputs, b.StateBits = u.Vars, u.Outputs, u.StateBits
		b.Transitions = make(map[string][]blobTransition, len(u.Transitions))
		for fn, trs := range u.Transitions {
			bt := make([]blobTransition, len(trs))
			for i, t := range trs {
				bt[i] = blobTransition{Start: bitString(t.Start), End: bitString(t.End), From: t.From, To: t.To}
			}
			b.Transitions[fn] = bt
		}
	}
	return json.Marshal(b)
}

// decodeController rebuilds a cache entry from its blob. Besides the
// netlist decode's own validation, a minimized controller's blob must
// carry its verification provenance: variables, and transitions for
// exactly the functions Outputs + y0..y(StateBits-1), every minterm
// over all the variables. A blob failing any check is an error; the
// caller counts it as corrupt and resynthesizes.
func decodeController(data []byte) (*synthEntry, error) {
	var b controllerBlob
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flow: decode controller: %w", err)
	}
	nl, err := gates.DecodeJSON(b.Netlist)
	if err != nil {
		return nil, err
	}
	e := &synthEntry{wires: b.Wires, netlist: nl, res: b.Result}
	if b.HandLibrary {
		if len(b.Vars)+len(b.Outputs)+b.StateBits+len(b.Transitions) > 0 {
			return nil, fmt.Errorf("flow: decode controller: hand-library blob carries burst provenance")
		}
		return e, nil
	}
	if len(b.Vars) == 0 {
		return nil, fmt.Errorf("flow: decode controller: minimized controller lacks its verification provenance")
	}
	// Every state bit needs its own transitions entry, so the count is
	// bounded by the blob's length, not by the number written in it.
	if b.StateBits < 0 || b.StateBits > len(b.Transitions) {
		return nil, fmt.Errorf("flow: decode controller: %d state bits for %d transition entries", b.StateBits, len(b.Transitions))
	}
	fns := make(map[string]bool, len(b.Outputs)+b.StateBits)
	for _, o := range b.Outputs {
		fns[o] = true
	}
	for i := 0; i < b.StateBits; i++ {
		fns[fmt.Sprintf("y%d", i)] = true
	}
	if len(fns) != len(b.Outputs)+b.StateBits || len(b.Transitions) != len(fns) {
		return nil, fmt.Errorf("flow: decode controller: transitions cover %d functions, want %d outputs + %d state bits",
			len(b.Transitions), len(b.Outputs), b.StateBits)
	}
	trs := make(map[string][]hfmin.Transition, len(b.Transitions))
	for fn, bts := range b.Transitions {
		if !fns[fn] {
			return nil, fmt.Errorf("flow: decode controller: transitions for unknown function %q", fn)
		}
		ts := make([]hfmin.Transition, len(bts))
		for i, bt := range bts {
			ts[i] = hfmin.Transition{From: bt.From, To: bt.To}
			if ts[i].Start, err = parseBits(bt.Start, len(b.Vars)); err == nil {
				ts[i].End, err = parseBits(bt.End, len(b.Vars))
			}
			if err != nil {
				return nil, fmt.Errorf("flow: decode controller: %s: %w", fn, err)
			}
		}
		trs[fn] = ts
	}
	e.unit = hazver.Unit{
		Name:        nl.Name,
		Vars:        b.Vars,
		Outputs:     b.Outputs,
		StateBits:   b.StateBits,
		Transitions: trs,
		Netlist:     nl,
	}
	return e, nil
}

// addDerivedRenames extends a wire substitution to the synthesis
// pipeline's derived net names. techmap names helper nets
// <var>_p$<id> and <var>_n$<id> after the variable they implement
// (every other Fresh prefix is a constant like "t" or "p"), so when a
// cached netlist's wires are renamed onto a new component's, those
// derived nets must carry the rename too — otherwise the spliced
// netlist would keep the seeding component's wire names inside helper
// nets and differ from what direct synthesis of the new component
// produces. The derived-name id is a function of circuit structure
// alone, which two programs sharing a canonical key have in common,
// so the extended rename is exactly direct synthesis's naming. The
// longest matching wire wins (unambiguous: two same-length distinct
// wires cannot both prefix one name at the same pattern position), so
// the result does not depend on map iteration order.
func addDerivedRenames(sub map[string]string, netNames []string) {
	wires := make([]string, 0, len(sub))
	for w := range sub {
		wires = append(wires, w)
	}
	for _, nm := range netNames {
		if _, ok := sub[nm]; ok {
			continue
		}
		best := ""
		for _, w := range wires {
			if len(w) > len(best) && (strings.HasPrefix(nm, w+"_p$") || strings.HasPrefix(nm, w+"_n$")) {
				best = w
			}
		}
		if best != "" {
			sub[nm] = sub[best] + nm[len(best):]
		}
	}
}

// IncrementalPlan partitions the components of an edited netlist
// against a base: which controllers an incremental run would reuse
// (canonical digest present in the base), which it must resynthesize,
// and which base controllers disappeared. It is a pure report over
// the submitted netlists — the flow's actual reuse decision is the
// same digest comparison made against the ControllerCache, but at the
// post-clustering grain and once per distinct shape (the in-run memo
// already folds duplicates), so the run's counters can undercount the
// plan when a design repeats a controller shape.
type IncrementalPlan struct {
	// Reused lists edited components (in netlist order) whose canonical
	// digest appears in the base.
	Reused []string
	// Resynthesize lists edited components needing fresh synthesis:
	// changed digests plus components the canonicalizer rejects.
	Resynthesize []string
	// BaseOnly lists base components (in netlist order) whose digest no
	// longer appears in the edited netlist.
	BaseOnly []string
}

// PlanIncremental diffs the per-controller canonical forms of an
// edited netlist against a base.
func PlanIncremental(base, edited *core.Netlist) *IncrementalPlan {
	baseDigests := map[string]bool{}
	for _, c := range base.Components {
		if d, ok := ch.ProgramDigest(c); ok {
			baseDigests[d] = true
		}
	}
	plan := &IncrementalPlan{}
	editedDigests := map[string]bool{}
	for _, c := range edited.Components {
		d, ok := ch.ProgramDigest(c)
		if ok {
			editedDigests[d] = true
		}
		if ok && baseDigests[d] {
			plan.Reused = append(plan.Reused, c.Name)
		} else {
			plan.Resynthesize = append(plan.Resynthesize, c.Name)
		}
	}
	for _, c := range base.Components {
		if d, ok := ch.ProgramDigest(c); !ok || !editedDigests[d] {
			plan.BaseOnly = append(plan.BaseOnly, c.Name)
		}
	}
	return plan
}

// String renders the plan for the CLI's -stats output.
func (p *IncrementalPlan) String() string {
	return fmt.Sprintf("incremental plan: %d reuse, %d resynthesize, %d base-only",
		len(p.Reused), len(p.Resynthesize), len(p.BaseOnly))
}
