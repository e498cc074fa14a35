package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/store"
)

// oneSequencer is a second, distinct control netlist so tests can
// submit two jobs with different dedup keys.
const oneSequencer = `
(program solo (rep (enc-early (p-to-p passive root)
    (seq (p-to-p active a1) (p-to-p active a2)))))
`

// TestListStableOrder pins the Manager.List contract: jobs come back
// in submission order (ascending IDs), however concurrently they were
// submitted. The journal records submissions in the same order (inside
// the same critical section), so this is also the order a restarted
// daemon reports.
func TestListStableOrder(t *testing.T) {
	m := testManagerNoWorkers(64)
	defer m.cancel()
	req := api.JobRequest{Kind: api.KindSynth, Source: twoSequencers}

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Submit(req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	list := m.List()
	if len(list) != n {
		t.Fatalf("List returned %d jobs, want %d", len(list), n)
	}
	for i, j := range list {
		want := fmt.Sprintf("j%05d", i+1)
		if j.ID != want {
			t.Fatalf("List[%d].ID = %s, want %s (stable submission order)", i, j.ID, want)
		}
	}
}

// submitCustom enqueues a job with a caller-supplied executor, exactly
// as Submit would, so tests can control execution timing directly.
func submitCustom(m *Manager, key string, exec func(context.Context, *flow.Metrics, flow.CheckpointSink, flow.ControllerCache) (*api.JobResult, error)) *Job {
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		Key:    key,
		ctx:    ctx,
		cancel: cancel,
		events: newBroker(m.cfg.History),
		met:    &flow.Metrics{},
		exec:   exec,
		state:  api.StateQueued,
		done:   make(chan struct{}),
	}
	m.mu.Lock()
	m.nextID++
	j.ID = fmt.Sprintf("j%05d", m.nextID)
	j.created = m.cfg.Clock()
	m.queue <- j
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	return j
}

// TestCancelRunningForgetsMemo is the regression test for the memo
// poisoning hazard: cancelling a running job must Forget its dedup key,
// so resubmitting the identical request executes afresh instead of
// being served the cancelled run's error.
func TestCancelRunningForgetsMemo(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	var runs atomic.Int32
	started := make(chan struct{})
	exec := func(ctx context.Context, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error) {
		if runs.Add(1) == 1 {
			close(started)
			<-ctx.Done() // first run blocks until cancelled
			return nil, ctx.Err()
		}
		return &api.JobResult{Kind: api.KindSynth}, nil
	}

	j1 := submitCustom(m, "memo-key", exec)
	<-started
	if !m.Cancel(j1.ID) {
		t.Fatal("Cancel returned false")
	}
	<-j1.Done()
	if st := j1.Status(); st.State != api.StateCanceled {
		t.Fatalf("cancelled job state = %s, want canceled", st.State)
	}

	j2 := submitCustom(m, "memo-key", exec)
	<-j2.Done()
	st := j2.Status()
	if st.State != api.StateDone {
		t.Fatalf("resubmitted job state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Dedup {
		t.Fatal("resubmitted job served from memo; cancelled run was not forgotten")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("executor ran %d times, want 2 (recompute after cancel)", got)
	}
}

// TestE2EWarmRestartByteIdentical proves the durable half of the
// acceptance criterion: results computed by one manager process are
// served byte-identically by the next one from the on-disk artifact
// cache — first via journal replay (the job reappears done), then as a
// disk-tier hit on resubmission, observable on /metrics.
func TestE2EWarmRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes control netlists across a restart")
	}
	dir := t.TempDir()
	req := api.JobRequest{Kind: api.KindSynth, Source: twoSequencers, Mode: api.ModeUnopt}
	req2 := api.JobRequest{Kind: api.KindSynth, Source: oneSequencer, Mode: api.ModeUnopt}

	// First daemon lifetime: run two jobs to completion.
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Workers: 2, Store: st1})
	j1, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m1.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	<-j2.Done()
	if st := j1.Status(); st.State != api.StateDone || st.Disk {
		t.Fatalf("cold run: state=%s disk=%v, want done/false", st.State, st.Disk)
	}
	ref, err := api.Encode(j1.Result())
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime, same data dir: the journal replays both jobs in
	// submission order, done, with results loading from the store.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewManager(Config{Workers: 2, Store: st2})
	defer m2.Close()

	list := m2.List()
	if len(list) != 2 || list[0].ID != "j00001" || list[1].ID != "j00002" {
		t.Fatalf("replayed List = %v jobs, want [j00001 j00002]", len(list))
	}
	rst := list[0].Status()
	if rst.State != api.StateDone || !rst.Disk {
		t.Fatalf("replayed job: state=%s disk=%v, want done/true", rst.State, rst.Disk)
	}
	got, err := api.Encode(list[0].Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("replayed result differs from the cold run:\n--- cold ---\n%s\n--- warm ---\n%s", ref, got)
	}

	// Resubmitting the identical request is a disk-tier hit: no flow
	// execution, byte-identical result, counted separately from the
	// in-memory dedup memo.
	j3, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()
	st := j3.Status()
	if st.ID != "j00003" {
		t.Fatalf("post-restart ID = %s, want j00003 (ID sequence survives restarts)", st.ID)
	}
	if st.State != api.StateDone || !st.Disk || st.Dedup {
		t.Fatalf("resubmission: state=%s disk=%v dedup=%v, want done/true/false", st.State, st.Disk, st.Dedup)
	}
	got3, err := api.Encode(j3.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got3) {
		t.Fatal("disk-served result differs from the cold run")
	}
	met := m2.Metrics()
	if met.StoreDiskHits != 1 || met.StoreMisses != 0 {
		t.Fatalf("store tiers: disk=%d misses=%d, want 1/0", met.StoreDiskHits, met.StoreMisses)
	}
	// Two job-result blobs plus the controller-grain blobs the runs
	// wrote for incremental resynthesis.
	if met.Store == nil || met.Store.Artifacts != 4 || met.Store.ControllerRefs != 2 {
		t.Fatalf("store stats = %+v, want 4 artifacts / 2 controller refs", met.Store)
	}
	text := PrometheusText(met)
	if !bytes.Contains([]byte(text), []byte(`balsabmd_store_hits_total{tier="disk"} 1`)) {
		t.Fatalf("/metrics missing disk-tier hit:\n%s", text)
	}
}

// memSink captures a flow run's checkpoints in memory so the resume
// test can stage a partial ("crashed mid-job") store.
type memSink struct {
	mu     sync.Mutex
	stages map[string][]byte
}

func (s *memSink) Load(stage string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.stages[stage]
	return d, ok
}

func (s *memSink) Save(stage string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stages[stage] = append([]byte(nil), data...)
}

// TestE2EResumeFromCheckpoint proves mid-job crash recovery: a journal
// holding a started-but-unfinished job whose cluster and unopt stages
// were checkpointed boots into a manager that re-enqueues the job,
// restores both stages (skipping their recomputation, visible in the
// stage counters), finishes the remaining opt arm, and produces a
// result byte-identical to an uninterrupted run.
func TestE2EResumeFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flow on the systolic counter")
	}
	req := api.JobRequest{Kind: api.KindDesign, Design: "systolic-counter",
		Config: api.FlowConfig{Workers: 2}}

	// Uninterrupted reference run through a store-less manager.
	mRef := NewManager(Config{Workers: 2})
	jRef, err := mRef.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-jRef.Done()
	ref, err := api.Encode(jRef.Result())
	if err != nil {
		t.Fatal(err)
	}
	mRef.Close()

	// Capture the full checkpoint set from an in-process flow run, then
	// stage the crash state: cluster and unopt persisted, opt not.
	sink := &memSink{stages: map[string][]byte{}}
	if _, err := flow.RunDesign(designs.SystolicCounter(), &flow.Options{Workers: 2, Checkpoint: sink}); err != nil {
		t.Fatal(err)
	}
	const (
		ckCluster = "systolic-counter/" + flow.StageCluster
		ckUnopt   = "systolic-counter/" + flow.StageUnopt
	)
	for _, stage := range []string{ckCluster, ckUnopt} {
		if _, ok := sink.stages[stage]; !ok {
			t.Fatalf("flow run saved no %q checkpoint (have %v)", stage, len(sink.stages))
		}
	}

	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	cd := st.Checkpoints(key)
	cd.Save(ckCluster, sink.stages[ckCluster])
	cd.Save(ckUnopt, sink.stages[ckUnopt])
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	st.AppendSubmit("j00001", key, req.Kind, body, "2026-01-02T03:04:05Z")
	st.AppendStart("j00001", "2026-01-02T03:04:06Z")
	st.AppendCheckpoint("j00001", key, ckCluster)
	st.AppendCheckpoint("j00001", key, ckUnopt)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot. The job must come back, resume past its checkpoints and
	// finish with the reference bytes.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m := NewManager(Config{Workers: 2, Store: st2})
	defer m.Close()

	j, ok := m.Get("j00001")
	if !ok {
		t.Fatal("interrupted job not replayed")
	}
	<-j.Done()
	jst := j.Status()
	if jst.State != api.StateDone {
		t.Fatalf("resumed job state = %s (err %q), want done", jst.State, jst.Error)
	}
	if jst.ResumedFrom != ckUnopt {
		t.Fatalf("ResumedFrom = %q, want %q", jst.ResumedFrom, ckUnopt)
	}
	got, err := api.Encode(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}

	met := m.Metrics()
	if met.JobsResumed != 1 {
		t.Fatalf("JobsResumed = %d, want 1", met.JobsResumed)
	}
	if met.CheckpointsRestored != 2 {
		t.Fatalf("CheckpointsRestored = %d, want 2 (cluster + unopt)", met.CheckpointsRestored)
	}
	if met.CheckpointsSaved != 1 {
		t.Fatalf("CheckpointsSaved = %d, want 1 (the finishing opt arm)", met.CheckpointsSaved)
	}
	// The restored stages were skipped, not recomputed: the unopt arm's
	// simulation ran once (for the opt arm), clustering not at all.
	if s := met.Stages["simulate"]; s.Count != 1 {
		t.Fatalf("simulate ran %d times, want 1 (unopt arm restored)", s.Count)
	}
	if s := met.Stages["cluster"]; s.Count != 0 {
		t.Fatalf("cluster ran %d times, want 0 (restored from checkpoint)", s.Count)
	}
}

// TestE2EResumeSynthFromCheckpoint: an opt KindSynth job clusters
// through the flow's checkpointed path, so a daemon that crashed after
// its "synth/cluster" stage resumes the job from that payload, finishes
// it without clustering again, and answers the bytes of an
// uninterrupted run.
func TestE2EResumeSynthFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the stack's clustered control netlist")
	}
	req := api.JobRequest{Kind: api.KindSynth, Source: designs.Stack().Control().Format(),
		Config: api.FlowConfig{Workers: 2}}

	mRef := NewManager(Config{Workers: 2})
	jRef, err := mRef.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-jRef.Done()
	if st := jRef.Status(); st.State != api.StateDone {
		t.Fatalf("reference job state = %s (err %q), want done", st.State, st.Error)
	}
	ref, err := api.Encode(jRef.Result())
	if err != nil {
		t.Fatal(err)
	}
	mRef.Close()

	// Capture the clustering payload the executor saves, then stage the
	// crash state: clustering persisted, the job not finished.
	sink := &memSink{stages: map[string][]byte{}}
	n, err := parseSource(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSynth(context.Background(), n, api.ModeOpt, req.Config, &flow.Metrics{}, sink, nil); err != nil {
		t.Fatal(err)
	}
	const ckCluster = "synth/" + flow.StageCluster
	if len(sink.stages) != 1 || sink.stages[ckCluster] == nil {
		t.Fatalf("synth executor saved %d stages, want exactly %q", len(sink.stages), ckCluster)
	}

	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	st.Checkpoints(key).Save(ckCluster, sink.stages[ckCluster])
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	st.AppendSubmit("j00001", key, req.Kind, body, "2026-01-02T03:04:05Z")
	st.AppendStart("j00001", "2026-01-02T03:04:06Z")
	st.AppendCheckpoint("j00001", key, ckCluster)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m := NewManager(Config{Workers: 2, Store: st2})
	defer m.Close()
	j, ok := m.Get("j00001")
	if !ok {
		t.Fatal("interrupted job not replayed")
	}
	<-j.Done()
	jst := j.Status()
	if jst.State != api.StateDone || jst.ResumedFrom != ckCluster {
		t.Fatalf("resumed job: state=%s (err %q) resumedFrom=%q, want done from %q", jst.State, jst.Error, jst.ResumedFrom, ckCluster)
	}
	got, err := api.Encode(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	met := m.Metrics()
	if met.CheckpointsRestored != 1 || met.CheckpointsSaved != 0 {
		t.Fatalf("checkpoints restored=%d saved=%d, want 1/0", met.CheckpointsRestored, met.CheckpointsSaved)
	}
	if s := met.Stages["cluster"]; s.Count != 0 {
		t.Fatalf("cluster ran %d times, want 0 (restored from checkpoint)", s.Count)
	}
}
