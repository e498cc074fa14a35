package flow

import (
	"encoding/json"

	"balsabm/internal/core"
)

// CheckpointSink persists completed pipeline stages of one flow run so
// an interrupted job can resume without redoing finished work. The
// flow calls Save with a deterministic JSON payload after each
// checkpointable stage completes, and consults Load before computing
// one. Implementations must be safe for concurrent use (the two arms
// of a design checkpoint independently) and must treat Save as
// best-effort: a dropped save costs recomputation, never correctness.
// The daemon backs this with internal/store; tests use in-memory maps.
//
// Payloads are pure functions of the run's inputs (the flow is
// deterministic), so a payload written by one process is valid in any
// later one with the same job key.
type CheckpointSink interface {
	// Load returns the payload saved for a stage, if any.
	Load(stage string) ([]byte, bool)
	// Save persists a completed stage's payload.
	Save(stage string, data []byte)
}

// Checkpoint stages recorded per design (prefixed "<design>/"; the
// daemon's synth jobs run as design "synth"):
//
//	cluster  the clustered control netlist (CH text) and its report —
//	         the opt arm's first stage, the only one SynthesizeCheckedCtx
//	         records
//	unopt    the completed unoptimized arm: controllers, areas, static
//	         report, benchmark time and description
//	opt      the completed optimized arm, plus the clustering report
const (
	StageCluster = "cluster"
	StageUnopt   = "unopt"
	StageOpt     = "opt"
)

// armCheckpoint is the payload of a completed flow arm. Every field is
// part of the final DesignResult, so a loaded arm reproduces exactly
// what the computation would have contributed.
type armCheckpoint struct {
	Arm ArmResult `json:"arm"`
	// Bench carries the benchmark description (set by the unopt arm).
	Bench string `json:"bench,omitempty"`
	// Report carries the clustering report (set by the opt arm).
	Report *core.Report `json:"report,omitempty"`
}

// clusterCheckpoint is the payload of a completed clustering stage:
// the clustered netlist round-trips as CH text (core.ParseNetlist of
// Format output reproduces the components exactly).
type clusterCheckpoint struct {
	Netlist string       `json:"netlist"`
	Report  *core.Report `json:"report"`
}

// ckpt scopes a sink to one design and counts traffic on the run's
// metrics. The zero sink (nil) loads nothing and saves nowhere.
type ckpt struct {
	sink   CheckpointSink
	prefix string
	met    *Metrics
}

func (r *runner) ckpt(design string) ckpt {
	return ckpt{sink: r.opt.Checkpoint, prefix: design + "/", met: r.met}
}

// load unmarshals a stage payload into v; any miss or decode failure
// is a plain miss (the stage recomputes).
func (c ckpt) load(stage string, v any) bool {
	if c.sink == nil {
		return false
	}
	data, ok := c.sink.Load(c.prefix + stage)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false
	}
	c.met.CheckpointLoads.Add(1)
	return true
}

// save marshals and persists a completed stage's payload.
func (c ckpt) save(stage string, v any) {
	if c.sink == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.sink.Save(c.prefix+stage, data)
	c.met.CheckpointSaves.Add(1)
}

// loadCluster restores a clustered netlist from its checkpoint. A
// payload whose netlist no longer parses is treated as a miss.
func (c ckpt) loadCluster() (*core.Netlist, *core.Report, bool) {
	var cp clusterCheckpoint
	if !c.load(StageCluster, &cp) {
		return nil, nil, false
	}
	n, err := core.ParseNetlist(cp.Netlist)
	if err != nil {
		return nil, nil, false
	}
	return n, cp.Report, true
}

// saveCluster persists a clustered netlist and its report. Without a
// sink it returns before formatting the netlist.
func (c ckpt) saveCluster(n *core.Netlist, rep *core.Report) {
	if c.sink == nil {
		return
	}
	c.save(StageCluster, clusterCheckpoint{Netlist: n.Format(), Report: rep})
}
