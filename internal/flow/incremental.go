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
	"sort"
	"strconv"
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
// audit bit from the key, so refs written under v2 miss; v4 writes each
// distinct transition minterm once, as a shared point.
const controllerBlobVersion = "v4"

// controllerBlob is the durable form of one synthesized controller:
// the seeding component's wires in canonical channel order (what
// WireRenames maps from), its report, its mapped netlist, and the
// burst provenance hazver verifies that netlist against — so a
// controller spliced in from the cache is checked exactly as a fresh
// synthesis would be. A hand-library circuit has no provenance and
// says so explicitly.
//
// Points lists each distinct transition minterm once, as a '0'/'1'
// string over Vars, and each function's transitions are index triples
// into it: start point, end point, From | To<<1. minimalist gives every
// function the same arcs, so the functions share a few points. Points
// are in first-use order (functions by name, then transition order),
// so the encoding is deterministic (JSON also sorts map keys) and
// identical syntheses dedupe in the content-addressed store.
type controllerBlob struct {
	Wires       []string         `json:"wires"`
	Result      ControllerResult `json:"result"`
	Netlist     json.RawMessage  `json:"netlist"`
	HandLibrary bool             `json:"handLibrary,omitempty"`
	Vars        []string         `json:"vars,omitempty"`
	Outputs     []string         `json:"outputs,omitempty"`
	StateBits   int              `json:"stateBits,omitempty"`
	Points      []string         `json:"points,omitempty"`
	Transitions map[string][]int `json:"transitions,omitempty"`
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
		return json.Marshal(b)
	}
	b.Vars, b.Outputs, b.StateBits = u.Vars, u.Outputs, u.StateBits
	fns := make([]string, 0, len(u.Transitions))
	n := 0
	for fn, trs := range u.Transitions {
		fns = append(fns, fn)
		n += len(trs)
	}
	sort.Strings(fns)
	index := map[string]int{}
	bits := make([]byte, 0, len(u.Vars))
	point := func(m []bool) int {
		bits = bits[:0]
		for _, v := range m {
			c := byte('0')
			if v {
				c = '1'
			}
			bits = append(bits, c)
		}
		if p, ok := index[string(bits)]; ok {
			return p
		}
		s := string(bits)
		index[s] = len(b.Points)
		b.Points = append(b.Points, s)
		return len(b.Points) - 1
	}
	// One block holds every function's triples; each function's entry
	// is a window of it.
	ints := make([]int, 0, 3*n)
	b.Transitions = make(map[string][]int, len(fns))
	for _, fn := range fns {
		first := len(ints)
		for _, t := range u.Transitions[fn] {
			v := 0
			if t.From {
				v |= 1
			}
			if t.To {
				v |= 2
			}
			ints = append(ints, point(t.Start), point(t.End), v)
		}
		b.Transitions[fn] = ints[first:len(ints):len(ints)]
	}
	return json.Marshal(b)
}

// decodeController rebuilds a cache entry from its blob. Besides the
// netlist decode's own validation, a minimized controller's blob must
// carry its verification provenance: variables, and transitions for
// exactly the functions Outputs + y0..y(StateBits-1), each a whole
// number of triples whose indexes name points and whose value is 0–3,
// every point over all the variables. A hand-library blob carries
// none of it. A blob failing any check is an error; the caller counts
// it as corrupt and resynthesizes. Everything the decode allocates is
// bounded by the blob's length, and the decoded transitions share the
// point slices read-only.
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
		if b.StateBits != 0 || len(b.Vars)+len(b.Outputs)+len(b.Points)+len(b.Transitions) > 0 {
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
	names := make([]string, 0, len(b.Outputs)+b.StateBits)
	names = append(names, b.Outputs...)
	for i := 0; i < b.StateBits; i++ {
		names = append(names, "y"+strconv.Itoa(i))
	}
	fns := make(map[string]bool, len(names))
	for _, fn := range names {
		fns[fn] = true
	}
	if len(fns) != len(names) || len(b.Transitions) != len(fns) {
		return nil, fmt.Errorf("flow: decode controller: transitions cover %d functions, want %d outputs + %d state bits",
			len(b.Transitions), len(b.Outputs), b.StateBits)
	}
	// The lengths come first: once every point is known to have one bit
	// per variable, the block below is no larger than the blob.
	nv := len(b.Vars)
	for i, p := range b.Points {
		if len(p) != nv {
			return nil, fmt.Errorf("flow: decode controller: point %d has %d bits, want %d", i, len(p), nv)
		}
	}
	block := make([]bool, len(b.Points)*nv)
	points := make([][]bool, len(b.Points))
	for i, p := range b.Points {
		m := block[i*nv : (i+1)*nv : (i+1)*nv]
		for k := 0; k < nv; k++ {
			switch p[k] {
			case '0':
			case '1':
				m[k] = true
			default:
				return nil, fmt.Errorf("flow: decode controller: point %q is not binary", p)
			}
		}
		points[i] = m
	}
	total := 0
	for _, fn := range names {
		ints, ok := b.Transitions[fn]
		if !ok {
			return nil, fmt.Errorf("flow: decode controller: no transitions for function %q", fn)
		}
		if len(ints)%3 != 0 {
			return nil, fmt.Errorf("flow: decode controller: %s: %d ints are not whole transitions", fn, len(ints))
		}
		total += len(ints) / 3
	}
	all := make([]hfmin.Transition, total)
	trs := make(map[string][]hfmin.Transition, len(names))
	for _, fn := range names {
		ints := b.Transitions[fn]
		ts := all[: len(ints)/3 : len(ints)/3]
		all = all[len(ints)/3:]
		for i := range ts {
			start, end, v := ints[3*i], ints[3*i+1], ints[3*i+2]
			if start < 0 || start >= len(points) || end < 0 || end >= len(points) {
				return nil, fmt.Errorf("flow: decode controller: %s: transition %d names points %d and %d of %d", fn, i, start, end, len(points))
			}
			if v < 0 || v > 3 {
				return nil, fmt.Errorf("flow: decode controller: %s: transition %d has value %d, want 0-3", fn, i, v)
			}
			ts[i] = hfmin.Transition{Start: points[start], End: points[end], From: v&1 != 0, To: v&2 != 0}
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
