package flow

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
)

// mapSink is an in-memory CheckpointSink recording every save.
type mapSink struct {
	mu     sync.Mutex
	stages map[string][]byte
}

func newMapSink() *mapSink { return &mapSink{stages: map[string][]byte{}} }

func (s *mapSink) Save(stage string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stages[stage] = append([]byte(nil), data...)
}

func (s *mapSink) Load(stage string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.stages[stage]
	return data, ok
}

func (s *mapSink) drop(stage string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.stages, stage)
}

// TestCheckpointResumeByteIdentical proves the resume contract at the
// flow level: a run restored from a partial checkpoint set (clustering
// done, unoptimized arm done, optimized arm lost — the state a daemon
// crash mid-job leaves behind) produces a DesignResult byte-identical
// to an uninterrupted run, while actually skipping the completed
// stages.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the systolic counter flow three times")
	}
	d := designs.SystolicCounter()

	// Uninterrupted reference run, recording every checkpoint.
	sink := newMapSink()
	met := &Metrics{}
	ref, err := RunDesign(d, &Options{Workers: 2, Checkpoint: sink, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DebugString()
	for _, stage := range []string{StageCluster, StageUnopt, StageOpt} {
		if _, ok := sink.Load(d.Name + "/" + stage); !ok {
			t.Fatalf("reference run did not checkpoint stage %q", stage)
		}
	}
	if met.CheckpointSaves.Load() != 3 || met.CheckpointLoads.Load() != 0 {
		t.Fatalf("reference run saves=%d loads=%d, want 3/0",
			met.CheckpointSaves.Load(), met.CheckpointLoads.Load())
	}

	// Crash scenario: the optimized arm's result never made it to disk.
	sink.drop(d.Name + "/" + StageOpt)
	met2 := &Metrics{}
	resumed, err := RunDesign(d, &Options{Workers: 2, Checkpoint: sink, Metrics: met2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.DebugString(); got != want {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// The unopt arm and clustering were restored, not recomputed: only
	// the opt arm simulated, and clustering ran zero times.
	if met2.CheckpointLoads.Load() != 2 {
		t.Fatalf("resumed run loads = %d, want 2 (cluster + unopt)", met2.CheckpointLoads.Load())
	}
	if n := met2.Timings.Snapshot()["simulate"].Count; n != 1 {
		t.Fatalf("resumed run ran %d simulations, want 1 (opt arm only)", n)
	}
	if n := met2.Timings.Snapshot()["cluster"].Count; n != 0 {
		t.Fatalf("resumed run ran clustering %d times, want 0", n)
	}

	// Full checkpoint set: everything restores, nothing computes.
	met3 := &Metrics{}
	warm, err := RunDesign(d, &Options{Workers: 2, Checkpoint: sink, Metrics: met3})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.DebugString(); got != want {
		t.Fatal("fully checkpointed run differs from uninterrupted run")
	}
	if n := met3.Timings.Snapshot()["simulate"].Count; n != 0 {
		t.Fatalf("fully checkpointed run ran %d simulations, want 0", n)
	}
}

// TestCheckpointCorruptPayloadRecomputes proves a damaged checkpoint
// degrades to recomputation, never to a wrong result.
func TestCheckpointCorruptPayloadRecomputes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the systolic counter flow twice")
	}
	d := designs.SystolicCounter()
	sink := newMapSink()
	ref, err := RunDesign(d, &Options{Workers: 2, Checkpoint: sink})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every payload.
	sink.mu.Lock()
	for stage := range sink.stages {
		sink.stages[stage] = []byte("{definitely not json")
	}
	sink.mu.Unlock()
	met := &Metrics{}
	got, err := RunDesign(d, &Options{Workers: 2, Checkpoint: sink, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if got.DebugString() != ref.DebugString() {
		t.Fatal("recomputed result differs from reference")
	}
	if met.CheckpointLoads.Load() != 0 {
		t.Fatalf("corrupt payloads counted as loads: %d", met.CheckpointLoads.Load())
	}
}

// TestCheckpointNilSinkSaveClusterAllocs: without a sink, saving a
// clustering stage is free — the netlist is not formatted to CH text
// only to be dropped.
func TestCheckpointNilSinkSaveClusterAllocs(t *testing.T) {
	n, rep, err := core.OptimizeOpt(designs.Stack().Control(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := (&runner{met: &Metrics{}}).ckpt("stack")
	if allocs := testing.AllocsPerRun(10, func() { c.saveCluster(n, rep) }); allocs != 0 {
		t.Fatalf("nil-sink saveCluster allocates %v times per call, want 0", allocs)
	}
}

// TestSynthesizeCheckedCheckpoint: a checked arm outside a flow run —
// the daemon's synth executor — clusters through the flow's own
// checkpointed path. The opt arm saves exactly "<design>/cluster"; a
// second run restores it instead of clustering and ships identical
// controllers and report. The unopt arm has nothing to checkpoint.
func TestSynthesizeCheckedCheckpoint(t *testing.T) {
	ctx := context.Background()
	n := designs.Stack().Control()
	sink := newMapSink()
	met := &Metrics{}
	ref, err := SynthesizeCheckedCtx(ctx, "synth", "opt", n, &Options{Workers: 2, Checkpoint: sink, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for stage := range sink.stages {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	if !reflect.DeepEqual(stages, []string{"synth/" + StageCluster}) {
		t.Fatalf("saved stages %v, want [synth/%s]", stages, StageCluster)
	}
	if met.CheckpointSaves.Load() != 1 || met.CheckpointLoads.Load() != 0 {
		t.Fatalf("first run saves=%d loads=%d, want 1/0", met.CheckpointSaves.Load(), met.CheckpointLoads.Load())
	}
	if ref.Report == nil || len(ref.Report.Merges) == 0 {
		t.Fatalf("opt arm carries no clustering report: %+v", ref.Report)
	}

	met2 := &Metrics{}
	got, err := SynthesizeCheckedCtx(ctx, "synth", "opt", n, &Options{Workers: 2, Checkpoint: sink, Metrics: met2})
	if err != nil {
		t.Fatal(err)
	}
	if met2.CheckpointLoads.Load() != 1 || met2.CheckpointSaves.Load() != 0 {
		t.Fatalf("resumed run saves=%d loads=%d, want 0/1", met2.CheckpointSaves.Load(), met2.CheckpointLoads.Load())
	}
	if c := met2.Timings.Snapshot()["cluster"].Count; c != 0 {
		t.Fatalf("resumed run clustered %d times, want 0", c)
	}
	if !reflect.DeepEqual(got.Controllers, ref.Controllers) || !reflect.DeepEqual(got.Report, ref.Report) {
		t.Fatal("restored clustering changed the controllers or the report")
	}
	for i := range ref.Mapped {
		a, err := gates.EncodeJSON(ref.Mapped[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := gates.EncodeJSON(got.Mapped[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("controller %s differs after restoring the clustering", ref.Controllers[i].Name)
		}
	}

	unopt := newMapSink()
	c, err := SynthesizeCheckedCtx(ctx, "synth", "unopt", n, &Options{Workers: 2, Checkpoint: unopt})
	if err != nil {
		t.Fatal(err)
	}
	if len(unopt.stages) != 0 || c.Report != nil {
		t.Fatalf("unopt arm saved %d stages, report %+v; want none", len(unopt.stages), c.Report)
	}
}
