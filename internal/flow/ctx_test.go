package flow

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"balsabm/internal/designs"
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

// SynthesizeCheckedCtx must propagate cancellation too, on both arms
// (it is the path of the daemon's synth jobs and of every checker): a
// cancelled run returns the context's error and no arm.
func TestSynthesizeCheckedCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := designs.SystolicCounter()
	for _, arm := range []string{"unopt", "opt"} {
		c, err := SynthesizeCheckedCtx(ctx, d.Name, arm, d.Control(), &Options{Workers: 1})
		if c != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SynthesizeCheckedCtx = %v, %v; want nil, context.Canceled", arm, c, err)
		}
	}
}

// cancelAtPut is a ControllerCache that serves nothing and cancels its
// run when the n-th fresh synthesis is written back.
type cancelAtPut struct {
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAtPut) GetController(string) ([]byte, bool) { return nil, false }

func (c *cancelAtPut) PutController(string, []byte) {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
}

// A run cancelled at its last fresh synthesis reaches the hazver gate
// with its context ended. The audit's passes then never run, so the
// arm must fail with the context's error instead of passing with a
// report of passes it never ran.
func TestSynthesizeCheckedCtxCancelledAtLastSynthesis(t *testing.T) {
	d := designs.SystolicCounter()
	for _, arm := range []string{"unopt", "opt"} {
		cold := NewMemoryControllerCache()
		if _, err := SynthesizeCheckedCtx(context.Background(), d.Name, arm, d.Control(), &Options{Controllers: cold}); err != nil {
			t.Fatalf("%s: cold run: %v", arm, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ctl := &cancelAtPut{cancel: cancel}
		ctl.n.Store(int64(cold.Len()))
		c, err := SynthesizeCheckedCtx(ctx, d.Name, arm, d.Control(), &Options{Controllers: ctl, Workers: 1})
		cancel()
		if ctl.n.Load() != 0 {
			t.Fatalf("%s: %d fresh syntheses left; the cancel never fired", arm, ctl.n.Load())
		}
		if c != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SynthesizeCheckedCtx = %v, %v; want nil, context.Canceled", arm, c, err)
		}
	}
}
