// Package sim is an event-driven logic simulator for mapped gate
// netlists plus behavioral processes. It stands in for the paper's
// back-annotated Verilog-XL simulations: every library cell switches
// with its library delay, datapath components are modelled behaviorally
// with the same delay model in both arms of a comparison, and
// environments are Go callbacks.
package sim

import (
	"fmt"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// event is a scheduled net assignment, gate-output commit, or callback.
type event struct {
	time float64
	seq  int64
	net  int
	val  bool
	gate int // -1 for plain net events; else index of the driving gate
	fn   func(*Simulator)
}

// eventHeap is a binary min-heap of events ordered by (time, seq),
// with container/heap's sift-up and sift-down on the typed slice, so
// no event is boxed. Every scheduled event takes a fresh seq, so the
// order is total and the pop order does not depend on the heap's shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = event{} // drop the callback so the queue does not retain it
	*h = q[:n]
	return e
}

// gateInst is a placed cell with inertial-delay bookkeeping: at most
// one output change is in flight; re-evaluations that return to the
// current output value cancel it (pulses shorter than the cell delay
// are absorbed, as in real gates).
type gateInst struct {
	cell       *cell.Cell
	ins        []int
	out        int
	delay      float64 // cell delay plus fanout loading (set by Init)
	tab        [2]uint64
	lutOK      bool // tab is valid: ≤6 inputs, pin count matches
	hasPending bool
	pendingVal bool
	pendingSeq int64
}

// eval recomputes the gate's output from the current net values. The
// hot path indexes the cell's cached truth table (cell.TruthTable, so
// it can never disagree with cell.Eval) instead of allocating an
// input slice per evaluation; cells the LUT cannot represent fall
// back to Eval.
func (g *gateInst) eval(values []bool) bool {
	if g.lutOK {
		idx := 0
		for j, in := range g.ins {
			if values[in] {
				idx |= 1 << uint(j)
			}
		}
		prev := 0
		if values[g.out] {
			prev = 1
		}
		return g.tab[prev]>>uint(idx)&1 != 0
	}
	ins := make([]bool, len(g.ins))
	for i, in := range g.ins {
		ins[i] = values[in]
	}
	return g.cell.Eval(ins, values[g.out])
}

// FanoutPenalty is the extra delay per additional fanout load on a
// gate's output (a first-order wire/load model: large clustered
// controllers drive many product terms from each literal, so their
// effective gate delays exceed the unloaded library figures).
const FanoutPenalty = 0.02 // ns per extra load

// Watcher observes value changes on a net.
type Watcher func(s *Simulator, net int, val bool)

// Simulator is the event-driven kernel.
type Simulator struct {
	lib      *cell.Library
	names    []string
	index    map[string]int
	values   []bool
	gates    []gateInst
	fanout   [][]int // net -> gate indices
	watchers map[int][]Watcher
	queue    eventHeap
	seq      int64
	stopped  bool

	// Time is the current simulation time in ns.
	Time float64
	// Events counts applied net changes (a rough activity measure).
	Events int64
}

// New creates a simulator over the given cell library.
func New(lib *cell.Library) *Simulator {
	return &Simulator{lib: lib, index: map[string]int{}, watchers: map[int][]Watcher{}}
}

// Net interns a global net by name.
func (s *Simulator) Net(name string) int {
	if id, ok := s.index[name]; ok {
		return id
	}
	id := len(s.names)
	s.names = append(s.names, name)
	s.index[name] = id
	s.values = append(s.values, false)
	s.fanout = append(s.fanout, nil)
	return id
}

// NetName returns the name of a net id.
func (s *Simulator) NetName(net int) string { return s.names[net] }

// Value reads a net by name.
func (s *Simulator) Value(name string) bool {
	return s.values[s.Net(name)]
}

// ValueOf reads a net by id.
func (s *Simulator) ValueOf(net int) bool { return s.values[net] }

// AddGate places a library cell instance on global nets.
func (s *Simulator) AddGate(cellName string, ins []int, out int) {
	g := gateInst{cell: s.lib.Get(cellName), ins: append([]int(nil), ins...), out: out}
	if tab, ok := g.cell.TruthTable(); ok && len(g.ins) == g.cell.Inputs {
		g.tab, g.lutOK = tab, true
	}
	idx := len(s.gates)
	s.gates = append(s.gates, g)
	for _, in := range g.ins {
		s.fanout[in] = append(s.fanout[in], idx)
	}
}

// AddNetlist instantiates a mapped netlist. Primary input and output
// nets keep their own names (optionally translated via portMap);
// internal nets are prefixed with instanceName to stay private.
func (s *Simulator) AddNetlist(nl *gates.Netlist, instanceName string, portMap map[string]string) {
	boundary := map[int]bool{}
	for _, n := range nl.Inputs {
		boundary[n] = true
	}
	for _, n := range nl.Outputs {
		boundary[n] = true
	}
	local := make([]int, len(nl.NetNames))
	for id, name := range nl.NetNames {
		global := name
		if mapped, ok := portMap[name]; ok {
			global = mapped
		} else if !boundary[id] {
			global = instanceName + "." + name
		}
		local[id] = s.Net(global)
	}
	for _, inst := range nl.Instances {
		ins := make([]int, len(inst.Inputs))
		for i, in := range inst.Inputs {
			ins[i] = local[in]
		}
		s.AddGate(inst.Cell, ins, local[inst.Output])
	}
}

// Watch registers a callback fired after the named net changes value.
func (s *Simulator) Watch(name string, w Watcher) {
	id := s.Net(name)
	s.watchers[id] = append(s.watchers[id], w)
}

// Schedule sets a net to a value after the given delay.
func (s *Simulator) Schedule(name string, val bool, delay float64) {
	s.ScheduleNet(s.Net(name), val, delay)
}

// ScheduleNet sets a net by id after the given delay.
func (s *Simulator) ScheduleNet(net int, val bool, delay float64) {
	s.seq++
	s.queue.push(event{time: s.Time + delay, seq: s.seq, net: net, val: val, gate: -1})
}

// evalGate recomputes a gate and manages its pending output event.
func (s *Simulator) evalGate(gi int) {
	g := &s.gates[gi]
	out := g.eval(s.values)
	switch {
	case g.hasPending:
		if out == g.pendingVal {
			return // already in flight
		}
		if out == s.values[g.out] {
			g.hasPending = false // inertial cancellation
			return
		}
		// Binary signals: out != pending and out != current cannot both
		// hold; kept for safety with future multi-valued cells.
		fallthrough
	default:
		if out == s.values[g.out] {
			return
		}
		s.seq++
		g.hasPending = true
		g.pendingVal = out
		g.pendingSeq = s.seq
		s.queue.push(event{time: s.Time + g.delay, seq: s.seq, net: g.out, val: out, gate: gi})
	}
}

// After schedules a callback to run at the given delay from now.
func (s *Simulator) After(delay float64, fn func(*Simulator)) {
	s.seq++
	s.queue.push(event{time: s.Time + delay, seq: s.seq, fn: fn})
}

// Stop halts the current Run after the present event.
func (s *Simulator) Stop() { s.stopped = true }

// Init settles the combinational network at time zero without
// generating events (power-up evaluation), so gates whose quiescent
// output is 1 (e.g. NAND of low inputs) start correctly.
func (s *Simulator) Init() error {
	// Effective per-gate delays: library delay plus fanout loading.
	loads := make([]int, len(s.names))
	for _, g := range s.gates {
		for _, in := range g.ins {
			loads[in]++
		}
	}
	for i := range s.gates {
		g := &s.gates[i]
		extra := loads[g.out] - 1
		if extra < 0 {
			extra = 0
		}
		if extra > 3 {
			extra = 3 // synthesis would insert buffer trees beyond this
		}
		g.delay = g.cell.Delay + FanoutPenalty*float64(extra)
	}
	for iter := 0; iter < 4*len(s.gates)+16; iter++ {
		changed := false
		for i := range s.gates {
			g := &s.gates[i]
			out := g.eval(s.values)
			if out != s.values[g.out] {
				s.values[g.out] = out
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: power-up evaluation did not settle")
}

// Run processes events until the queue drains, the time limit passes,
// the event budget is exhausted, or Stop is called.
func (s *Simulator) Run(until float64, maxEvents int64) error {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		e := s.queue.pop()
		if e.time > until {
			s.Time = until
			return fmt.Errorf("sim: time limit %.2f ns exceeded", until)
		}
		s.Time = e.time
		if e.fn != nil {
			e.fn(s)
			continue
		}
		if e.gate >= 0 {
			g := &s.gates[e.gate]
			if !g.hasPending || g.pendingSeq != e.seq {
				continue // cancelled or superseded
			}
			g.hasPending = false
		}
		if s.values[e.net] == e.val {
			continue
		}
		s.values[e.net] = e.val
		s.Events++
		if s.Events > maxEvents {
			return fmt.Errorf("sim: event budget %d exceeded at %.2f ns (oscillation?)", maxEvents, s.Time)
		}
		for _, gi := range s.fanout[e.net] {
			s.evalGate(gi)
		}
		for _, w := range s.watchers[e.net] {
			w(s, e.net, e.val)
		}
	}
	return nil
}

// Quiet reports whether no events are pending.
func (s *Simulator) Quiet() bool { return len(s.queue) == 0 }
