package flow

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"balsabm/internal/designs"
	"balsabm/internal/techmap"
)

// A cancelled context must stop a flow run with the context's error
// instead of a partial result.
func TestRunDesignCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunDesignCtx(ctx, designs.SystolicCounter(), &Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunDesignCtx error = %v, want context.Canceled", err)
	}
}

// cancelOnSave is a CheckpointSink that cancels its run at the first
// Save, the moment the first design's first stage completes, so the
// cancellation lands mid-run however fast the flow is.
type cancelOnSave struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (s *cancelOnSave) Load(string) ([]byte, bool) { return nil, false }
func (s *cancelOnSave) Save(string, []byte)        { s.once.Do(s.cancel) }

// Cancelling mid-run must return promptly: leaf tasks still waiting
// for a worker slot are abandoned rather than drained.
func TestRunAllCtxCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-design flow")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := RunAllCtx(ctx, &Options{Workers: 1, Checkpoint: &cancelOnSave{cancel: cancel}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllCtx error = %v, want context.Canceled", err)
	}
	// The cancel comes after one stage of four designs' flows;
	// returning quickly shows the remaining leaves were abandoned.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}
}

// SynthesizeNetlistCtx must propagate cancellation too (it is the
// server's path for submitted designs).
func TestSynthesizeNetlistCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := designs.SystolicCounter().Control()
	_, _, err := SynthesizeNetlistCtx(ctx, n, techmap.SpeedSplit, &Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SynthesizeNetlistCtx error = %v, want context.Canceled", err)
	}
}
