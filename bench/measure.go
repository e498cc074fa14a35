package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a plain run sets its workload up; setup_s
// is the median, and the last session is the one measured.
const setupReps = 5

// runner holds the settings of one run.
type runner struct {
	seed    int64
	seconds int
	out     string    // trace output directory ("" = a new temp dir)
	log     io.Writer // progress and failures
	maxOps  int       // stop after this many ops when > 0 (tests)
	exp     *expected // pinned digests; nil loads the committed ones
}

// newEnv prepares a workload environment and a cleanup that removes its
// scratch directory.
func (r *runner) newEnv(workers int) (*env, func(), error) {
	exp := r.exp
	if exp == nil {
		var err error
		if exp, err = loadExpected(); err != nil {
			return nil, nil, err
		}
	}
	tmp, err := os.MkdirTemp("", "balsabench-")
	if err != nil {
		return nil, nil, err
	}
	return &env{seed: r.seed, workers: workers, exp: exp, tmp: tmp}, func() { os.RemoveAll(tmp) }, nil
}

// loop runs ops until the run's seconds have passed, at a pass
// boundary, or maxOps ops have run. It returns per-op latencies in ms,
// the summed area of successful ops, the number of failed ops and the
// measured wall time.
func (r *runner) loop(ctx context.Context, s *session, tr *tracer) (lats []float64, area float64, failed int, wall time.Duration, err error) {
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	for i := 0; ctx.Err() == nil && (r.maxOps == 0 || i < r.maxOps); i++ {
		if i > 0 && i%s.pass == 0 {
			if !time.Now().Before(deadline) {
				break
			}
			if s.newPass != nil {
				if err := s.newPass(ctx); err != nil {
					return nil, 0, 0, 0, fmt.Errorf("pass %d: %w", i/s.pass, err)
				}
			}
		}
		if tr != nil {
			tr.beginOp(i)
		}
		t := time.Now()
		a, err := s.op(ctx, i)
		lats = append(lats, float64(time.Since(t))/1e6)
		if tr != nil {
			tr.endOp()
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(r.log, "bench: op %d: %v\n", i, err)
			}
			continue
		}
		area += a
	}
	return lats, area, failed, time.Since(start), nil
}

// endToEnd is a plain run: set up setupReps times, then measure the
// end-to-end metrics over the last session with the flow pool at one
// worker per CPU.
func (r *runner) endToEnd(ctx context.Context, w *workload) (*result, error) {
	e, cleanup, err := r.newEnv(runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var setups []float64
	var s *session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		if s, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()

	runtime.GC()
	cpu0 := cpuTime()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lats, area, failed, wall, err := r.loop(ctx, s, nil)
	if err != nil {
		return nil, err
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if len(lats) == 0 {
		return nil, fmt.Errorf("no op ran: %v", ctx.Err())
	}

	ops := float64(len(lats))
	fmt.Fprintf(r.log, "%s: %d ops in %.2f s; latency p90 has %d samples beyond it\n",
		w.name, len(lats), wall.Seconds(), len(lats)-int(math.Ceil(0.9*ops)))
	vals := map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"latency_p50_ms":   quantile(lats, 0.5),
		"latency_p90_ms":   quantile(lats, 0.9),
		"throughput_ops_s": ops / wall.Seconds(),
		"cpu_ms_per_op":    float64(cpu1-cpu0) / 1e6 / ops,
		"alloc_mb_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops,
		"max_rss_mb":       maxRSSMB(),
	}
	if ok := len(lats) - failed; ok > 0 {
		vals["circuit_area_um2"] = area / float64(ok)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(lats),
		Failed:    failed,
		Metrics:   pick(endToEnd, vals),
	}, nil
}

// traced is a traced run: one setup, then the ops replayed layer by
// layer on one worker with a span around every call into a module.
func (r *runner) traced(ctx context.Context, w *workload) (*result, error) {
	e, cleanup, err := r.newEnv(1)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tr := newTracer(w.name)
	e.rp = newReplayer(tr)
	s, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	lats, _, failed, _, err := r.loop(ctx, s, tr)
	if err != nil {
		return nil, err
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no op ran: %v", ctx.Err())
	}
	vals := tr.metrics()
	if err := r.writeTrace(tr, vals); err != nil {
		return nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(lats),
		Failed:    failed,
		Metrics:   pick(perLayer, vals),
	}, nil
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// rusage reads the process's resource usage. Getrusage can fail only
// on a bad pointer or an unknown who, neither possible here.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	ru := rusage()
	return float64(ru.Maxrss) * 1024 / 1e6
}
