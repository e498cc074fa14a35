package core

import (
	"context"

	"balsabm/internal/parallel"
)

// Options tune the clustering algorithms.
//
// MaxStates bounds the Burst-Mode state count of a clustered
// controller: merges whose result would exceed it are rejected, exactly
// like merges that fail the Burst-Mode aware checks. The paper's
// conclusions discuss this knob ("elaborate a set of restrictions such
// that the synthesis step becomes manageable") as the alternative to a
// post-clustering decomposition step; 0 means unlimited.
type Options struct {
	MaxStates int
	// Deprecated: ignored. Clustering probes the channels in order on
	// the caller's goroutine and reads no worker setting. The field is
	// kept only because the benchmark module's replay still sets it.
	Workers int
	// Deprecated: ignored, like Workers and for the same reason.
	Pool *parallel.Pool
	// Ctx, when set, cancels a clustering run in flight: the run checks
	// it before every legality probe and returns the context's error.
	// Nil means context.Background().
	Ctx context.Context
}

// ctx resolves the run's cancellation context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}
