package sim

import (
	"fmt"
	"math/rand"

	"balsabm/internal/bm"
)

// SpecDriver exercises a controller per its Burst-Mode specification:
// it plays the environment, delivering input bursts (in randomized
// order with a configurable stagger) and verifying that exactly the
// specified output bursts come back. It doubles as a dynamic
// conformance checker for mapped controllers and as a convenient
// closed-loop testbench.
type SpecDriver struct {
	Spec  *bm.Spec
	Delay float64 // environment response delay per input edge (ns)
	// Choose selects the arc to take from a state with several
	// outgoing arcs; nil picks pseudo-randomly.
	Choose func(arcs []bm.Arc, cycle int) bm.Arc

	Cycles int // completed arcs
	Err    error

	rng     *rand.Rand
	state   int
	pending map[string]bool // outstanding expected output edges (name+polarity key)
	arc     bm.Arc
	stopAt  int
	sim     *Simulator
	netName func(string) string
}

// NewSpecDriver attaches a driver to the simulator. Input and output
// nets are the spec's signal names (optionally through portMap).
func NewSpecDriver(s *Simulator, sp *bm.Spec, delay float64, seed int64, portMap map[string]string) *SpecDriver {
	d := &SpecDriver{
		Spec:  sp,
		Delay: delay,
		rng:   rand.New(rand.NewSource(seed)),
		state: sp.Start,
		sim:   s,
	}
	net := func(sig string) string {
		if portMap != nil {
			if m, ok := portMap[sig]; ok {
				return m
			}
		}
		return sig
	}
	for _, out := range sp.Outputs {
		sig := out
		s.Watch(net(sig), func(s *Simulator, _ int, val bool) {
			d.observe(s, sig, val)
		})
	}
	d.netName = net
	return d
}

func (d *SpecDriver) fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
	d.sim.Stop()
}

// Start launches the driver for the given number of arcs (0 = drive
// forever until the simulator stops).
func (d *SpecDriver) Start(arcs int) {
	d.stopAt = arcs
	d.next(d.sim)
}

func key(name string, rise bool) string {
	if rise {
		return name + "+"
	}
	return name + "-"
}

// next picks the outgoing arc and schedules its input burst.
func (d *SpecDriver) next(s *Simulator) {
	if d.stopAt > 0 && d.Cycles >= d.stopAt {
		s.Stop()
		return
	}
	arcs := d.Spec.ArcsFrom(d.state)
	if len(arcs) == 0 {
		d.fail("spec driver: state %d has no outgoing arcs", d.state)
		return
	}
	var arc bm.Arc
	if d.Choose != nil {
		arc = d.Choose(arcs, d.Cycles)
	} else {
		arc = arcs[d.rng.Intn(len(arcs))]
	}
	d.arc = arc
	d.pending = map[string]bool{}
	for _, o := range arc.Out {
		d.pending[key(o.Name, o.Rise)] = true
	}
	// Deliver the input burst in random order with stagger.
	burst := append(bm.Burst(nil), arc.In...)
	d.rng.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
	delay := d.Delay
	for _, sig := range burst {
		s.Schedule(d.netName(sig.Name), sig.Rise, delay)
		delay += d.Delay * 0.3
	}
	if len(arc.Out) == 0 {
		// Nothing to observe: proceed after the machine settles.
		s.After(delay+2.0, func(s *Simulator) { d.advance(s) })
	}
}

// observe processes a controller output edge.
func (d *SpecDriver) observe(s *Simulator, sig string, val bool) {
	k := key(sig, val)
	if d.pending == nil || !d.pending[k] {
		d.fail("spec driver: unexpected output %s at %.2f ns (state %d, arc %s)", k, s.Time, d.state, d.arc)
		return
	}
	delete(d.pending, k)
	if len(d.pending) == 0 {
		d.advance(s)
	}
}

// advance completes the current arc.
func (d *SpecDriver) advance(s *Simulator) {
	d.state = d.arc.To
	d.Cycles++
	d.next(s)
}

// State returns the driver's current specification state.
func (d *SpecDriver) State() int { return d.state }
