package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/balsa"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/parallel"
	"balsabm/internal/store"
	"balsabm/internal/techmap"
)

// Config tunes the job manager.
type Config struct {
	// Workers is the number of jobs executing concurrently; 0 means 1.
	// Each job additionally fans its own leaf work (syntheses, probes,
	// simulations) across the flow's per-run pool, bounded by the
	// request's FlowConfig.Workers.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected (the HTTP layer answers 503). 0 means 64.
	QueueDepth int
	// History bounds the progress events retained per job for replay
	// to late stream subscribers; 0 means 512.
	History int
	// Clock supplies timestamps for job statuses; nil means time.Now.
	// Tests inject a fixed clock.
	Clock func() time.Time
	// Store, when non-nil, makes the manager durable: completed results
	// land in the content-addressed artifact cache (consulted before the
	// in-memory memo on every run), job history is journaled, in-flight
	// jobs checkpoint each completed pipeline stage, and NewManager
	// replays the journal — re-enqueueing jobs the previous process
	// never finished. The caller owns the store and closes it after
	// Manager.Close.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.History <= 0 {
		c.History = 512
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// ErrQueueFull rejects submissions when the job queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// Job is one unit of synthesis work moving through the queue.
type Job struct {
	ID  string
	Req api.JobRequest
	// Key is the job's dedup key digest (see requestKey).
	Key string

	ctx    context.Context
	cancel context.CancelFunc
	events *broker
	met    *flow.Metrics
	exec   func(ctx context.Context, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error)

	mu    sync.Mutex
	state string
	dedup bool
	// disk marks a result served from the on-disk artifact cache.
	disk bool
	// resumedFrom names the last checkpointed stage of a job re-enqueued
	// from the journal at boot ("" when it restarts from scratch).
	resumedFrom string
	err         string
	result      *api.JobResult
	// load lazily fetches the result of a journal-replayed done job from
	// the artifact store (nil for jobs that completed in this process).
	load     func() *api.JobResult
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on terminal state
}

// Status snapshots the job for the wire.
func (j *Job) Status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:          j.ID,
		Kind:        j.Req.Kind,
		State:       j.state,
		Dedup:       j.dedup,
		Disk:        j.disk,
		ResumedFrom: j.resumedFrom,
		BaseJobID:   j.Req.BaseJobID,
		Key:         j.Key,
		Error:       j.err,
		Created:     j.created.UTC().Format(time.RFC3339Nano),

		// Incremental resynthesis split: populated while the job's own
		// flow executes (dedup-/disk-served jobs keep zeros — they never
		// reached the synthesis layer).
		ControllersReused:        j.met.ControllersReused.Load(),
		ControllersResynthesized: j.met.ControllersResynthesized.Load(),
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// Result returns the job's result once done (nil otherwise). For jobs
// replayed done from the journal, the blob loads from the artifact
// store on first access; a blob since evicted by GC yields nil (the
// job's status stays done — resubmitting the request recomputes it).
func (j *Job) Result() *api.JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil && j.load != nil {
		j.result = j.load()
	}
	return j.result
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == api.StateDone || state == api.StateFailed || state == api.StateCanceled
}

// Manager owns the job queue: bounded-concurrency execution on top of
// per-job contexts, request deduplication through a single-flight
// memo keyed on canonical design forms, per-job progress brokers, and
// the daemon-wide counters behind /metrics.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job
	memo   parallel.Memo[*api.JobResult]
	store  *store.Store // nil = in-memory only
	// ctl is the controller-grain artifact cache attached to every
	// job's flow run (incremental resynthesis): the durable store when
	// configured, an in-process map otherwise — so an edit-compile loop
	// reuses unchanged controllers either way.
	ctl flow.ControllerCache

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int64
	// diags counts checker diagnostics by tier, then code, across every
	// executed job: the findings its gates recorded plus the error
	// findings of a gate that failed the job. The bmlint, hazver and
	// netlint tiers are exported as balsabmd_<tier>_diags_total{code=...};
	// chlint has no daemon counter.
	diags map[string]map[string]int64

	dedupHits   parallel.Counter
	dedupMisses parallel.Counter
	flowHits    parallel.Counter
	flowMisses  parallel.Counter
	minExact    parallel.Counter
	minGreedy   parallel.Counter
	enumNodes   parallel.Counter
	branchNodes parallel.Counter
	aggTimings  parallel.Timings

	// Result-cache tiers (run's lookup order: disk, then memo, then
	// fresh execution) and durability traffic.
	storeDiskHits parallel.Counter
	storeMemHits  parallel.Counter
	storeMisses   parallel.Counter
	jobsResumed   parallel.Counter
	ckptSaves     parallel.Counter
	ckptLoads     parallel.Counter

	// Incremental resynthesis split across every executed job, exported
	// as balsabmd_incremental_controllers_total{outcome=...}.
	ctlReused  parallel.Counter
	ctlResynth parallel.Counter
	ctlCorrupt parallel.Counter
}

// NewManager starts a manager with cfg.Workers executor goroutines.
// With a configured store, the journal replays first: finished jobs
// reappear with their terminal states (results load lazily from the
// artifact cache), and jobs the previous process never finished are
// re-enqueued ahead of new submissions, resuming from their last
// checkpointed stage.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		store:  cfg.Store,
		jobs:   map[string]*Job{},
	}
	if cfg.Store != nil {
		m.ctl = cfg.Store
	} else {
		m.ctl = flow.NewMemoryControllerCache()
	}
	var resumable []*Job
	if m.store != nil {
		resumable = m.replayJournal()
	}
	// The queue grows by the resumed backlog so replay can never
	// overflow it; new submissions still see cfg.QueueDepth slots.
	m.queue = make(chan *Job, cfg.QueueDepth+len(resumable))
	for _, j := range resumable {
		m.queue <- j
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		parallel.Go(m.worker)
	}
	return m
}

// Close cancels every job and stops the workers. In-flight flow runs
// stop at their next leaf boundary.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

// Submit validates and enqueues one request. The returned job is
// already queued (or rejected with ErrQueueFull / a validation error).
func (m *Manager) Submit(req api.JobRequest) (*Job, error) {
	exec, key, err := prepare(req)
	if err != nil {
		return nil, err
	}
	// An incremental resubmission must name a job this daemon knows —
	// catching stale IDs at submission, where the client can react,
	// instead of silently running cold. The base does not change the
	// dedup key (the controller cache is consulted for every run), so
	// validation is all that happens here.
	if req.BaseJobID != "" {
		if _, ok := m.Get(req.BaseJobID); !ok {
			return nil, fmt.Errorf("server: unknown base job %q", req.BaseJobID)
		}
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		Req:    req,
		Key:    key,
		ctx:    ctx,
		cancel: cancel,
		events: newBroker(m.cfg.History),
		met:    &flow.Metrics{},
		exec:   exec,
		state:  api.StateQueued,
		done:   make(chan struct{}),
	}
	j.events.publish(api.Event{Type: "state", State: api.StateQueued})
	m.hookJob(j)

	m.mu.Lock()
	m.nextID++
	j.ID = fmt.Sprintf("j%05d", m.nextID)
	j.created = m.cfg.Clock()
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	// Journal the accepted submission inside the lock, so the journal's
	// record order matches ID order and a replayed List comes back in
	// the same sequence clients saw before the restart.
	if m.store != nil {
		if body, err := json.Marshal(req); err == nil {
			m.store.AppendSubmit(j.ID, j.Key, req.Kind, body, m.stamp(j.created))
		}
	}
	m.mu.Unlock()
	return j, nil
}

// hookJob forwards a job's stage completions to its progress stream
// (folding them into the daemon-wide stage totals) and streams its
// checker gates' findings. Shared by Submit and the boot-time replay.
func (m *Manager) hookJob(j *Job) {
	j.met.Timings.Notify(func(stage string, d time.Duration, s parallel.Stage) {
		m.aggTimings.Observe(stage, d)
		j.events.publish(api.Event{
			Type:        "stage",
			Stage:       stage,
			Count:       s.Count,
			TotalMicros: s.Total.Microseconds(),
		})
	})
	// Stream every checker gate's non-error findings as they are
	// recorded.
	j.met.NotifyFindings(func(f flow.Finding) { j.events.publish(api.FindingEvent(f)) })
}

// stamp formats a journal timestamp (UTC RFC3339Nano, matching the
// wire form of job statuses).
func (m *Manager) stamp(t time.Time) string {
	return t.UTC().Format(time.RFC3339Nano)
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job. A queued job transitions to canceled
// immediately; a running one stops at its next leaf boundary and
// transitions when its executor observes the cancellation.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	j.mu.Lock()
	if j.state == api.StateQueued {
		j.mu.Unlock()
		// A user cancellation is final: journal it so the job does not
		// come back after a restart. (Jobs cancelled by daemon shutdown
		// never get a cancel record — they stay non-terminal in the
		// journal and resume on the next boot.)
		if m.store != nil && m.ctx.Err() == nil {
			m.store.AppendCancel(j.ID, m.stamp(m.cfg.Clock()))
		}
		m.finish(j, api.StateCanceled, nil, context.Canceled)
	} else {
		j.mu.Unlock()
	}
	return true
}

// QueueDepth is the number of jobs waiting for an executor.
func (m *Manager) QueueDepth() int64 { return int64(len(m.queue)) }

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one dequeued job: the on-disk artifact cache answers
// first (tier "disk"), then the in-process single-flight memo (tier
// "memory"), and only a miss on both executes the flow — with each
// completed pipeline stage checkpointed to the store so a crashed
// daemon resumes instead of restarting.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if terminal(j.state) { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = api.StateRunning
	j.started = m.cfg.Clock()
	started := j.started
	j.mu.Unlock()
	if m.store != nil {
		m.store.AppendStart(j.ID, m.stamp(started))
	}
	j.events.publish(api.Event{Type: "state", State: api.StateRunning})

	if res := m.diskLookup(j); res != nil {
		m.storeDiskHits.Add(1)
		j.mu.Lock()
		j.disk = true
		j.mu.Unlock()
		m.journalDone(j, res)
		m.finish(j, api.StateDone, res, nil)
		return
	}

	res, hit, err := m.memo.Do(j.Key, func() (*api.JobResult, error) {
		return j.exec(j.ctx, j.met, m.sink(j), m.ctl)
	})
	if hit {
		m.dedupHits.Add(1)
		m.storeMemHits.Add(1)
		j.mu.Lock()
		j.dedup = true
		j.mu.Unlock()
	} else {
		m.dedupMisses.Add(1)
		m.storeMisses.Add(1)
		m.flowHits.Add(j.met.CacheHits.Load())
		m.flowMisses.Add(j.met.CacheMisses.Load())
		m.minExact.Add(j.met.MinimizeExact.Load())
		m.minGreedy.Add(j.met.MinimizeGreedy.Load())
		m.enumNodes.Add(j.met.EnumNodes.Load())
		m.branchNodes.Add(j.met.BranchNodes.Load())
		m.ckptSaves.Add(j.met.CheckpointSaves.Load())
		m.ckptLoads.Add(j.met.CheckpointLoads.Load())
		m.ctlReused.Add(j.met.ControllersReused.Load())
		m.ctlResynth.Add(j.met.ControllersResynthesized.Load())
		m.ctlCorrupt.Add(j.met.ControllersCorrupt.Load())
		m.countDiags(j.met.Findings(), err)
	}
	switch {
	case err == nil:
		m.journalDone(j, res)
		m.finish(j, api.StateDone, res, nil)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		// A cancelled run is not a property of the design; un-memoize
		// it so the next identical submission computes afresh.
		if !hit {
			m.memo.Forget(j.Key)
		}
		// Only user cancellations are journaled as final (see Cancel);
		// a shutdown-cancelled job resumes on the next boot.
		if m.store != nil && m.ctx.Err() == nil {
			m.store.AppendCancel(j.ID, m.stamp(m.cfg.Clock()))
		}
		m.finish(j, api.StateCanceled, nil, err)
	default:
		if m.store != nil {
			m.store.AppendFail(j.ID, err.Error(), m.stamp(m.cfg.Clock()))
		}
		m.finish(j, api.StateFailed, nil, err)
	}
}

// finish moves a job to a terminal state, publishes the terminal
// event and closes its progress stream.
func (m *Manager) finish(j *Job, state string, res *api.JobResult, err error) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.finished = m.cfg.Clock()
	if err != nil {
		j.err = err.Error()
	}
	dedup, disk := j.dedup, j.disk
	j.mu.Unlock()
	ev := api.Event{
		Type: "state", State: state, Dedup: dedup, Disk: disk,
		ControllersReused:        j.met.ControllersReused.Load(),
		ControllersResynthesized: j.met.ControllersResynthesized.Load(),
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.events.publish(ev)
	j.events.close()
	close(j.done)
	j.cancel()
}

// countDiags folds one executed job's checker diagnostics into the
// daemon-wide per-tier, per-code counters: the non-error findings its
// gates recorded, plus the error findings of the gate that failed the
// job.
func (m *Manager) countDiags(fs []flow.Finding, err error) {
	var gate interface{ Findings() []flow.Finding }
	if errors.As(err, &gate) {
		fs = append(fs, gate.Findings()...)
	}
	if len(fs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.diags == nil {
		m.diags = map[string]map[string]int64{}
	}
	for _, f := range fs {
		if m.diags[f.Tier] == nil {
			m.diags[f.Tier] = map[string]int64{}
		}
		m.diags[f.Tier][f.Code]++
	}
}

// Metrics snapshots the daemon-wide counters.
func (m *Manager) Metrics() *api.MetricsJSON {
	out := &api.MetricsJSON{
		JobsByState: map[string]int64{
			api.StateQueued: 0, api.StateRunning: 0, api.StateDone: 0,
			api.StateFailed: 0, api.StateCanceled: 0,
		},
		QueueDepth:      m.QueueDepth(),
		DedupHits:       m.dedupHits.Load(),
		DedupMisses:     m.dedupMisses.Load(),
		FlowCacheHits:   m.flowHits.Load(),
		FlowCacheMisses: m.flowMisses.Load(),
		MinimizeExact:   m.minExact.Load(),
		MinimizeGreedy:  m.minGreedy.Load(),
		EnumNodes:       m.enumNodes.Load(),
		BranchNodes:     m.branchNodes.Load(),
		Stages:          map[string]api.StageJSON{},

		StoreDiskHits:       m.storeDiskHits.Load(),
		StoreMemHits:        m.storeMemHits.Load(),
		StoreMisses:         m.storeMisses.Load(),
		JobsResumed:         m.jobsResumed.Load(),
		CheckpointsSaved:    m.ckptSaves.Load(),
		CheckpointsRestored: m.ckptLoads.Load(),

		ControllersReused:        m.ctlReused.Load(),
		ControllersResynthesized: m.ctlResynth.Load(),
		ControllersCorrupt:       m.ctlCorrupt.Load(),
	}
	if m.store != nil {
		if st, err := m.store.Stats(); err == nil {
			out.Store = api.FromStoreStats(st)
		}
	}
	for _, j := range m.List() {
		j.mu.Lock()
		out.JobsByState[j.state]++
		j.mu.Unlock()
	}
	for name, s := range m.aggTimings.Snapshot() {
		out.Stages[name] = api.StageJSON{Count: s.Count, TotalMicros: s.Total.Microseconds()}
	}
	m.mu.Lock()
	for tier, counts := range m.diags {
		if dst := out.TierDiags(tier); dst != nil {
			*dst = maps.Clone(counts)
		}
	}
	m.mu.Unlock()
	return out
}

// ---------------------------------------------------------------------
// Request preparation: validation, canonical dedup keys, executors.

// netlistKey digests a control netlist for deduplication. Each
// component contributes its name plus its ch.Canonicalize form — the
// α-renamed body key and the actual wire names in canonical channel
// order. Actual wires (not α-classes) are part of the key because the
// netlist's interconnect and the emitted gate netlists depend on them;
// two requests share a key exactly when the flow would produce
// byte-identical outputs for them, however their sources were
// formatted. Components the canonicalizer rejects (verb channels)
// contribute their formatted text instead.
func netlistKey(n *core.Netlist) string {
	h := sha256.New()
	for _, c := range n.Components {
		if cf, ok := ch.CanonicalizeProgram(c); ok {
			fmt.Fprintf(h, "%s|%s|%s\n", c.Name, cf.Key, strings.Join(cf.Wires, ","))
		} else {
			fmt.Fprintf(h, "%s|raw|%s\n", c.Name, ch.FormatProgram(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prepare validates a request and returns its executor closure and
// dedup key. All parsing happens here, at submission time, so a
// malformed request fails synchronously with a 400-class error. The
// executor receives the job's checkpoint sink (nil without a store)
// and the manager's controller cache (incremental resynthesis tier)
// and threads both into the flow, so long runs persist each completed
// stage and unchanged controllers splice in instead of recomputing.
func prepare(req api.JobRequest) (func(context.Context, *flow.Metrics, flow.CheckpointSink, flow.ControllerCache) (*api.JobResult, error), string, error) {
	cfgKey := req.Config.Key()
	switch req.Kind {
	case api.KindDesign:
		d, err := designs.ByName(req.Design)
		if err != nil {
			return nil, "", err
		}
		key := fmt.Sprintf("design|%s|%s|%s", req.Design, cfgKey, netlistKey(d.Control()))
		exec := func(ctx context.Context, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error) {
			opt := req.Config.Options(met)
			opt.Checkpoint = ck
			opt.Controllers = ctl
			r, err := flow.RunDesignCtx(ctx, d, opt)
			if err != nil {
				return nil, err
			}
			return &api.JobResult{Kind: api.KindDesign, Design: api.FromDesignResult(r)}, nil
		}
		return exec, key, nil

	case api.KindTable3:
		key := fmt.Sprintf("table3|%s", cfgKey)
		exec := func(ctx context.Context, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error) {
			opt := req.Config.Options(met)
			opt.Checkpoint = ck
			opt.Controllers = ctl
			rs, err := flow.RunAllCtx(ctx, opt)
			if err != nil {
				return nil, err
			}
			return &api.JobResult{Kind: api.KindTable3, Table3: api.FromDesignResults(rs)}, nil
		}
		return exec, key, nil

	case api.KindSynth:
		n, err := parseSource(req)
		if err != nil {
			return nil, "", err
		}
		mode, err := synthMode(req.Mode)
		if err != nil {
			return nil, "", err
		}
		key := fmt.Sprintf("synth|%s|%s|%s", mode, cfgKey, netlistKey(n))
		exec := func(ctx context.Context, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error) {
			return runSynth(ctx, n, mode, req.Config, met, ck, ctl)
		}
		return exec, key, nil
	}
	return nil, "", fmt.Errorf("server: unknown job kind %q", req.Kind)
}

// synthMode resolves a request's arm: empty means opt, and anything but
// opt or unopt is rejected.
func synthMode(mode string) (string, error) {
	switch mode {
	case "":
		return api.ModeOpt, nil
	case api.ModeOpt, api.ModeUnopt:
		return mode, nil
	}
	return "", fmt.Errorf("server: unknown mode %q", mode)
}

// parseSource turns a KindSynth request body into a control netlist.
func parseSource(req api.JobRequest) (*core.Netlist, error) {
	if strings.TrimSpace(req.Source) == "" {
		return nil, fmt.Errorf("server: synth request has empty source")
	}
	switch req.Format {
	case "", api.FormatCH:
		return core.ParseNetlist(req.Source)
	case api.FormatBalsa:
		name := req.Name
		if name == "" {
			name = "design"
		}
		hcn, err := balsa.CompileSource(req.Source, name)
		if err != nil {
			return nil, err
		}
		return hcn.Control()
	}
	return nil, fmt.Errorf("server: unknown source format %q", req.Format)
}

// runSynth is the executor for submitted designs: the lint gate, then
// the flow's checked arm — clustering for opt (checkpointed to ck as
// "synth/cluster" when durable, so a daemon interrupted mid-job
// resumes with the clustered netlist instead of re-deriving it), the
// bmlint gate, one synthesis of every controller, and the netlint and
// hazver gates — returning summary numbers and structural Verilog per
// controller.
func runSynth(ctx context.Context, n *core.Netlist, mode string, cfg api.FlowConfig, met *flow.Metrics, ck flow.CheckpointSink, ctl flow.ControllerCache) (*api.JobResult, error) {
	// Pre-synthesis lint gate, mirroring the flow's runDesign: error
	// findings fail the job before clustering or synthesis start;
	// warnings stream to subscribers via the metrics lint hook.
	if err := flow.LintNetlist(n, "submitted", met); err != nil {
		return nil, err
	}
	// Gate errors fail the job before any Verilog ships. Warnings and
	// the BM200/NL200/HZ200 reports stream to subscribers and count
	// toward the daemon's per-code totals; the netlint and hazver
	// reports ride on the result.
	opts := cfg.Options(met)
	opts.Checkpoint = ck
	opts.Controllers = ctl
	c, err := flow.SynthesizeCheckedCtx(ctx, "synth", mode, n, opts)
	if err != nil {
		return nil, err
	}
	lib := opts.Lib
	if lib == nil {
		lib = cell.AMS035()
	}
	nlRep, hzRep := api.NetlintReport(c.Netlint), api.HazverReport(c.Hazver)
	out := &api.SynthResultJSON{Mode: mode, Report: api.FromReport(c.Report), Netlint: &nlRep, Hazver: &hzRep}
	for i, nl := range c.Mapped {
		out.Controllers = append(out.Controllers, api.SynthControllerJSON{
			Controller: api.FromControllerResult(c.Controllers[i]),
			Verilog:    techmap.VerilogModules(nl, lib),
		})
	}
	return &api.JobResult{Kind: api.KindSynth, Synth: out}, nil
}

// RunSynth executes a KindSynth request in process, without a job
// queue: the balsabm CLI's synth subcommand calls it directly, so a
// local run and a daemon job go through the same executor and emit
// byte-identical results. ctl is the controller-grain incremental
// cache (nil to synthesize everything afresh); there is no checkpoint
// sink — interrupted CLI runs just rerun.
func RunSynth(ctx context.Context, req api.JobRequest, met *flow.Metrics, ctl flow.ControllerCache) (*api.JobResult, error) {
	n, err := parseSource(req)
	if err != nil {
		return nil, err
	}
	mode, err := synthMode(req.Mode)
	if err != nil {
		return nil, err
	}
	return runSynth(ctx, n, mode, req.Config, met, nil, ctl)
}
