package server

import (
	"fmt"
	"sort"
	"strings"

	"balsabm/internal/api"
)

// PrometheusText renders the daemon counters in the Prometheus text
// exposition format (hand-rolled; the repo is standard-library only).
// Series are emitted in sorted label order so scrapes are
// deterministic and diffable.
func PrometheusText(m *api.MetricsJSON) string {
	var sb strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }

	line("# HELP balsabmd_jobs_total Jobs by current state.")
	line("# TYPE balsabmd_jobs_total gauge")
	states := make([]string, 0, len(m.JobsByState))
	for s := range m.JobsByState {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		line("balsabmd_jobs_total{state=%q} %d", s, m.JobsByState[s])
	}

	line("# HELP balsabmd_queue_depth Jobs waiting for an executor.")
	line("# TYPE balsabmd_queue_depth gauge")
	line("balsabmd_queue_depth %d", m.QueueDepth)

	line("# HELP balsabmd_dedup_hits_total Jobs served from the request dedup cache.")
	line("# TYPE balsabmd_dedup_hits_total counter")
	line("balsabmd_dedup_hits_total %d", m.DedupHits)
	line("# HELP balsabmd_dedup_misses_total Jobs that ran the flow.")
	line("# TYPE balsabmd_dedup_misses_total counter")
	line("balsabmd_dedup_misses_total %d", m.DedupMisses)

	line("# HELP balsabmd_flow_cache_hits_total Canonical-form synthesis cache hits across jobs.")
	line("# TYPE balsabmd_flow_cache_hits_total counter")
	line("balsabmd_flow_cache_hits_total %d", m.FlowCacheHits)
	line("# HELP balsabmd_flow_cache_misses_total Canonical-form synthesis cache misses across jobs.")
	line("# TYPE balsabmd_flow_cache_misses_total counter")
	line("balsabmd_flow_cache_misses_total %d", m.FlowCacheMisses)

	line("# HELP balsabmd_store_hits_total Results served from the result cache, by tier (disk = on-disk artifact store, memory = in-process memo).")
	line("# TYPE balsabmd_store_hits_total counter")
	line("balsabmd_store_hits_total{tier=%q} %d", "disk", m.StoreDiskHits)
	line("balsabmd_store_hits_total{tier=%q} %d", "memory", m.StoreMemHits)
	line("# HELP balsabmd_store_misses_total Jobs that missed every result-cache tier and executed the flow.")
	line("# TYPE balsabmd_store_misses_total counter")
	line("balsabmd_store_misses_total %d", m.StoreMisses)

	line("# HELP balsabmd_incremental_controllers_total Controller syntheses by outcome (reused = spliced from the controller-grain artifact cache, resynthesized = computed afresh and written back, corrupt = a cached blob that failed to decode and was resynthesized).")
	line("# TYPE balsabmd_incremental_controllers_total counter")
	line("balsabmd_incremental_controllers_total{outcome=%q} %d", "resynthesized", m.ControllersResynthesized)
	line("balsabmd_incremental_controllers_total{outcome=%q} %d", "reused", m.ControllersReused)
	line("balsabmd_incremental_controllers_total{outcome=%q} %d", "corrupt", m.ControllersCorrupt)

	line("# HELP balsabmd_jobs_resumed_total Jobs re-enqueued from the journal at boot.")
	line("# TYPE balsabmd_jobs_resumed_total counter")
	line("balsabmd_jobs_resumed_total %d", m.JobsResumed)
	line("# HELP balsabmd_checkpoints_total Pipeline-stage checkpoints, by direction.")
	line("# TYPE balsabmd_checkpoints_total counter")
	line("balsabmd_checkpoints_total{op=%q} %d", "restored", m.CheckpointsRestored)
	line("balsabmd_checkpoints_total{op=%q} %d", "saved", m.CheckpointsSaved)

	if m.Store != nil {
		line("# HELP balsabmd_store_artifacts Result blobs in the artifact cache.")
		line("# TYPE balsabmd_store_artifacts gauge")
		line("balsabmd_store_artifacts %d", m.Store.Artifacts)
		line("# HELP balsabmd_store_artifact_bytes Bytes held by the artifact cache.")
		line("# TYPE balsabmd_store_artifact_bytes gauge")
		line("balsabmd_store_artifact_bytes %d", m.Store.ArtifactBytes)
		line("# HELP balsabmd_store_corrupt_total Artifacts that failed read-back verification this session.")
		line("# TYPE balsabmd_store_corrupt_total counter")
		line("balsabmd_store_corrupt_total %d", m.Store.Corrupt)
		line("# HELP balsabmd_store_controller_refs Controller-grain refs in the artifact cache (incremental resynthesis tier).")
		line("# TYPE balsabmd_store_controller_refs gauge")
		line("balsabmd_store_controller_refs %d", m.Store.ControllerRefs)
	}

	line("# HELP balsabmd_minimize_functions_total Functions minimized, by solver path.")
	line("# TYPE balsabmd_minimize_functions_total counter")
	line("balsabmd_minimize_functions_total{path=%q} %d", "exact", m.MinimizeExact)
	line("balsabmd_minimize_functions_total{path=%q} %d", "greedy", m.MinimizeGreedy)

	line("# HELP balsabmd_minimize_enum_nodes_total Prime-enumeration nodes visited by the minimizer.")
	line("# TYPE balsabmd_minimize_enum_nodes_total counter")
	line("balsabmd_minimize_enum_nodes_total %d", m.EnumNodes)
	line("# HELP balsabmd_minimize_branch_nodes_total Covering branch-and-bound nodes visited by the minimizer.")
	line("# TYPE balsabmd_minimize_branch_nodes_total counter")
	line("balsabmd_minimize_branch_nodes_total %d", m.BranchNodes)

	line("# HELP balsabmd_bmlint_diags_total Burst-Mode spec diagnostics surfaced by the bmlint gates, by code.")
	line("# TYPE balsabmd_bmlint_diags_total counter")
	bmCodes := make([]string, 0, len(m.BmlintDiags))
	for c := range m.BmlintDiags {
		bmCodes = append(bmCodes, c)
	}
	sort.Strings(bmCodes)
	for _, c := range bmCodes {
		line("balsabmd_bmlint_diags_total{code=%q} %d", c, m.BmlintDiags[c])
	}

	line("# HELP balsabmd_hazver_diags_total Static hazard-verification diagnostics surfaced by the hazver gates, by code.")
	line("# TYPE balsabmd_hazver_diags_total counter")
	hzCodes := make([]string, 0, len(m.HazverDiags))
	for c := range m.HazverDiags {
		hzCodes = append(hzCodes, c)
	}
	sort.Strings(hzCodes)
	for _, c := range hzCodes {
		line("balsabmd_hazver_diags_total{code=%q} %d", c, m.HazverDiags[c])
	}

	line("# HELP balsabmd_netlint_diags_total Netlist diagnostics surfaced by the netlint gates, by code.")
	line("# TYPE balsabmd_netlint_diags_total counter")
	codes := make([]string, 0, len(m.NetlintDiags))
	for c := range m.NetlintDiags {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		line("balsabmd_netlint_diags_total{code=%q} %d", c, m.NetlintDiags[c])
	}

	line("# HELP balsabmd_stage_runs_total Completed pipeline-stage units.")
	line("# TYPE balsabmd_stage_runs_total counter")
	stages := make([]string, 0, len(m.Stages))
	for s := range m.Stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		line("balsabmd_stage_runs_total{stage=%q} %d", s, m.Stages[s].Count)
	}
	line("# HELP balsabmd_stage_seconds_total Wall-clock spent per pipeline stage.")
	line("# TYPE balsabmd_stage_seconds_total counter")
	for _, s := range stages {
		line("balsabmd_stage_seconds_total{stage=%q} %.6f", s, float64(m.Stages[s].TotalMicros)/1e6)
	}
	return sb.String()
}
