package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// traceOps bounds the ops whose spans go to the Chrome trace file,
// which keeps it near a megabyte; the per-layer totals cover every op.
const traceOps = 50

// tracer records the spans of a traced run's ops in memory: per-layer
// call counts, busy time and heap allocation, named counters, and the
// spans of the first traceOps ops, written out as Chrome trace events
// when the run ends. Work outside an op (setup, the start of a pass)
// runs untraced. Spans are siblings (the replay never nests them), so a
// span's self time is its duration.
type tracer struct {
	workload string
	t0       time.Time
	// Tags of the spans being recorded.
	op                     int
	design, arm, component string

	inOp    bool
	layers  map[string]*layerStat
	counts  map[string]float64
	events  []traceEvent
	ops     int
	opStart time.Time
	lastEnd time.Time
	opWall  time.Duration // Σ per-op wall, op start to last span end
	spanSum time.Duration // Σ span durations
	allocs  []metrics.Sample
}

type layerStat struct {
	Calls int64         `json:"calls"`
	Busy  time.Duration `json:"busy_ns"`
	Alloc uint64        `json:"alloc_bytes"`
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open offline.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since the tracer started
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       time.Now(),
		layers:   map[string]*layerStat{},
		counts:   map[string]float64{},
		allocs:   []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs reads the cumulative bytes allocated on the heap; unlike
// runtime.ReadMemStats it does not stop the world.
func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// span times f as one call into the named layer.
func (t *tracer) span(name string, f func() error) error {
	if !t.inOp {
		return f()
	}
	a0 := t.heapAllocs()
	start := time.Now()
	err := f()
	end := time.Now()
	alloc := t.heapAllocs() - a0
	l := t.layers[name]
	if l == nil {
		l = &layerStat{}
		t.layers[name] = l
	}
	d := end.Sub(start)
	l.Calls++
	l.Busy += d
	l.Alloc += alloc
	t.spanSum += d
	t.lastEnd = end
	if t.ops >= traceOps {
		return err
	}
	args := map[string]string{"workload": t.workload, "op": fmt.Sprint(t.op)}
	if t.design != "" {
		args["design"] = t.design
	}
	if t.arm != "" {
		args["arm"] = t.arm
	}
	if t.component != "" {
		args["component"] = t.component
	}
	t.events = append(t.events, t.event(name, start, d, args))
	return err
}

func (t *tracer) event(name string, start time.Time, d time.Duration, args map[string]string) traceEvent {
	cat, _, _ := strings.Cut(name, ".")
	return traceEvent{Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: 1, Args: args,
		Ts: float64(start.Sub(t.t0)) / 1e3, Dur: float64(d) / 1e3}
}

// add bumps a named counter.
func (t *tracer) add(name string, v float64) {
	if t.inOp {
		t.counts[name] += v
	}
}

func (t *tracer) beginOp(i int) {
	t.op = i
	t.inOp = true
	t.opStart = time.Now()
	t.lastEnd = t.opStart
}

// endOp closes the op at its last span's end: checks that follow the
// replay are not part of it.
func (t *tracer) endOp() {
	t.inOp = false
	wall := t.lastEnd.Sub(t.opStart)
	if t.ops < traceOps {
		t.events = append(t.events, t.event("op", t.opStart, wall,
			map[string]string{"workload": t.workload, "op": fmt.Sprint(t.op)}))
	}
	t.ops++
	t.opWall += wall
}

// metrics derives the per-layer metrics, all per op: the perLayer set
// plus the layers only some workloads reach, present when they ran.
func (t *tracer) metrics() map[string]float64 {
	n := float64(t.ops)
	ms := func(layer string) float64 {
		if l := t.layers[layer]; l != nil {
			return float64(l.Busy) / 1e6 / n
		}
		return 0
	}
	calls := func(layer string) float64 {
		if l := t.layers[layer]; l != nil {
			return float64(l.Calls) / n
		}
		return 0
	}
	allocMB := func(layer string) float64 {
		if l := t.layers[layer]; l != nil {
			return float64(l.Alloc) / 1e6 / n
		}
		return 0
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := t.counts
	v := map[string]float64{
		"analysis.ms":          ms("analysis"),
		"core.ms":              ms("core"),
		"core.merges":          c["core.merges"] / n,
		"core.merge_ratio":     ratio(c["core.merges"], c["core.merges"]+c["core.skipped"]),
		"core.alloc_mb":        allocMB("core"),
		"bmlint.ms":            ms("bmlint"),
		"chtobm.ms":            ms("chtobm"),
		"chtobm.calls":         calls("chtobm"),
		"chtobm.states":        c["chtobm.states"] / n,
		"minimalist.ms":        ms("minimalist"),
		"minimalist.calls":     calls("minimalist"),
		"minimalist.alloc_mb":  allocMB("minimalist"),
		"hfmin.functions":      c["hfmin.functions"] / n,
		"hfmin.exact_ratio":    ratio(c["hfmin.exact"], c["hfmin.functions"]),
		"hfmin.enum_nodes":     c["hfmin.enum_nodes"] / n,
		"hfmin.branch_nodes":   c["hfmin.branch_nodes"] / n,
		"techmap.map_ms":       ms("techmap.map"),
		"techmap.audit_ms":     ms("techmap.audit"),
		"techmap.cells":        c["techmap.cells"] / n,
		"gates.rename_ms":      ms("gates.rename"),
		"netlint.ms":           ms("netlint"),
		"hazver.gate_ms":       ms("hazver.gate"),
		"hazver.audit_ms":      ms("hazver.audit"),
		"hazver.resynth_ms":    ms("hazver.gate") - ms("hazver.audit"),
		"flow.reuse_ratio":     ratio(c["flow.memo_hits"], c["flow.components"]),
		"flow.unattributed_ms": float64(t.opWall-t.spanSum) / 1e6 / n,
		"spans.coverage":       ratio(float64(t.spanSum), float64(t.opWall)),
	}
	if t.layers["sim"] != nil {
		v["sim.ms"] = ms("sim")
		v["sim.events"] = c["sim.events"] / n
	}
	if t.layers["server.submit"] != nil {
		v["server.submit_ms"] = ms("server.submit")
		v["server.wait_ms"] = ms("server.wait")
		v["server.result_ms"] = ms("server.result")
		v["server.queue_ms"] = c["server.queue_ms"] / n
		v["server.run_ms"] = c["server.run_ms"] / n
		v["api.result_kb"] = c["api.result_kb"] / n
		v["store.reuse_ratio"] = ratio(c["store.reused"], c["store.reused"]+c["store.resynthesized"])
		v["store.bytes_per_op"] = c["store.bytes"] / n
	}
	return v
}

// writeTrace writes trace-<workload>.json (Chrome trace events) and
// layers-<workload>.json (per-layer totals and every metric) to the
// run's output directory.
func (r *runner) writeTrace(t *tracer, vals map[string]float64) error {
	dir := r.out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "balsabench-trace-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(dir, "trace-"+t.workload+".json")
	layersPath := filepath.Join(dir, "layers-"+t.workload+".json")
	if err := writeJSON(tracePath, map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	layers := map[string]any{
		"workload":  t.workload,
		"ops":       t.ops,
		"op_wall_s": t.opWall.Seconds(),
		"span_s":    t.spanSum.Seconds(),
		"layers":    t.layers,
		"counters":  t.counts,
		"metrics":   vals,
	}
	if err := writeJSON(layersPath, layers); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "%s: %d traced ops, spans cover %.1f%% of op wall; wrote %s and %s\n",
		t.workload, t.ops, 100*vals["spans.coverage"], tracePath, layersPath)
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
	}
	var extra []string
	for name, v := range vals {
		if !listed[name] {
			extra = append(extra, fmt.Sprintf("%s=%.4g", name, v))
		}
	}
	sort.Strings(extra)
	fmt.Fprintf(r.log, "%s: layers file only: %s\n", t.workload, strings.Join(extra, " "))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
