// Package dpath provides behavioral datapath handshake components for
// the event simulator: variables (latch banks), transferrers, function
// units, constants, data-dependent selectors and memories, plus
// environment-side helpers for testbenches.
//
// In the paper's flow the datapath is synthesized by the unmodified
// Balsa back-end and is identical in the optimized and unoptimized
// circuits; only the control differs. Modelling the datapath
// behaviorally — with a consistent area/delay cost model applied to
// both arms — therefore preserves exactly what Table 3 measures: the
// relative effect of the control optimization.
//
// Channels: a sync channel is a request/acknowledge wire pair
// (<name>_r, <name>_a). A data channel adds an abstract value bus
// (carried as a Go value, not as wires). Pull channels are served by
// the component owning the data (acknowledge carries the value); push
// channels are driven by the producer (request carries the value).
package dpath

import (
	"fmt"

	"balsabm/internal/sim"
)

// Cost model, calibrated to the 0.35µm-class cell library.
const (
	LatchAreaPerBit = 64.0 // µm² (one LATCH cell per bit)
	FuncAreaPerBit  = 90.0 // µm² per bit of a typical ALU function
	WireArea        = 12.0 // µm² per channel for completion/steering
	LatchDelay      = 0.18 // ns
	SelectDelay     = 0.25 // ns
	// CompletionPerBit models the width-dependent part of a register
	// access (dual-rail/bundled completion detection and data wiring):
	// Balsa's datapath is delay-insensitive, so acknowledge generation
	// scales with the word width.
	CompletionPerBit = 0.012 // ns per bit
	// AckDelay is the controller-facing acknowledge latency of a
	// datapath component (completion detection plus wiring). It also
	// guarantees generalized fundamental mode: the environment never
	// responds faster than a clustered controller settles.
	AckDelay = 0.45 // ns
)

// FuncDelay returns the evaluation delay of a width-bit function unit
// (ripple-style scaling).
func FuncDelay(width int) float64 { return 0.3 + 0.04*float64(width) }

// Bus is the abstract value carried by a data channel.
type Bus struct{ Val uint64 }

// Builder wires behavioral components into a simulator and accumulates
// their datapath area.
type Builder struct {
	S        *sim.Simulator
	Area     float64
	bus      map[string]*Bus
	memories []*Memory
}

// NewBuilder creates a datapath builder over the simulator.
func NewBuilder(s *sim.Simulator) *Builder {
	return &Builder{S: s, bus: map[string]*Bus{}}
}

// Bus returns (creating on demand) the value cell of a data channel.
func (b *Builder) Bus(name string) *Bus {
	if v, ok := b.bus[name]; ok {
		return v
	}
	v := &Bus{}
	b.bus[name] = v
	return v
}

func req(ch string) string { return ch + "_r" }
func ack(ch string) string { return ch + "_a" }

// onRise registers fn for rising edges of a net.
func (b *Builder) onRise(net string, fn func(s *sim.Simulator)) {
	b.S.Watch(net, func(s *sim.Simulator, _ int, val bool) {
		if val {
			fn(s)
		}
	})
}

// onFall registers fn for falling edges of a net.
func (b *Builder) onFall(net string, fn func(s *sim.Simulator)) {
	b.S.Watch(net, func(s *sim.Simulator, _ int, val bool) {
		if !val {
			fn(s)
		}
	})
}

// Variable is a width-bit latch bank with one write (push-passive)
// channel and any number of read (pull-passive) channels.
func (b *Builder) Variable(name string, width int, write string, reads ...string) *Bus {
	stored := &Bus{}
	b.Area += float64(width)*LatchAreaPerBit + WireArea*float64(1+len(reads))
	access := LatchDelay + CompletionPerBit*float64(width)
	if write != "" {
		wb := b.Bus(write)
		b.onRise(req(write), func(s *sim.Simulator) {
			stored.Val = wb.Val
			s.Schedule(ack(write), true, access)
		})
		b.onFall(req(write), func(s *sim.Simulator) {
			s.Schedule(ack(write), false, access)
		})
	}
	for _, r := range reads {
		r := r
		rb := b.Bus(r)
		b.onRise(req(r), func(s *sim.Simulator) {
			rb.Val = stored.Val
			s.Schedule(ack(r), true, access)
		})
		b.onFall(req(r), func(s *sim.Simulator) {
			s.Schedule(ack(r), false, access)
		})
	}
	return stored
}

// Fetch is the transferrer "dst <- src": a sync activation pulls src
// and pushes the value into dst.
func (b *Builder) Fetch(act, src, dst string) {
	b.Area += 2 * WireArea
	sb, db := b.Bus(src), b.Bus(dst)
	busy := false // guards against cross-talk if a channel is shared
	b.onRise(req(act), func(s *sim.Simulator) {
		busy = true
		s.Schedule(req(src), true, 0.15)
	})
	b.onRise(ack(src), func(s *sim.Simulator) {
		if !busy {
			return
		}
		db.Val = sb.Val
		s.Schedule(req(src), false, 0.15)
	})
	b.onFall(ack(src), func(s *sim.Simulator) {
		if !busy {
			return
		}
		s.Schedule(req(dst), true, 0.15)
	})
	b.onRise(ack(dst), func(s *sim.Simulator) {
		if !busy {
			return
		}
		s.Schedule(req(dst), false, 0.15)
	})
	b.onFall(ack(dst), func(s *sim.Simulator) {
		if !busy {
			return
		}
		busy = false
		s.Schedule(ack(act), true, AckDelay)
	})
	b.onFall(req(act), func(s *sim.Simulator) {
		s.Schedule(ack(act), false, AckDelay)
	})
}

// Func is a pull-served function unit: when out is pulled, it pulls all
// inputs concurrently, computes f, and acknowledges out with the value.
func (b *Builder) Func(out string, width int, f func(ins []uint64) uint64, ins ...string) {
	b.Area += float64(width)*FuncAreaPerBit + WireArea*float64(len(ins))
	ob := b.Bus(out)
	inBus := make([]*Bus, len(ins))
	for i, in := range ins {
		inBus[i] = b.Bus(in)
	}
	pending := 0
	b.onRise(req(out), func(s *sim.Simulator) {
		if len(ins) == 0 {
			ob.Val = f(nil)
			s.Schedule(ack(out), true, FuncDelay(width))
			return
		}
		pending = len(ins)
		for _, in := range ins {
			s.Schedule(req(in), true, 0.15)
		}
	})
	for _, in := range ins {
		b.onRise(ack(in), func(s *sim.Simulator) {
			pending--
			if pending == 0 {
				vals := make([]uint64, len(inBus))
				for i, ib := range inBus {
					vals[i] = ib.Val
				}
				ob.Val = f(vals)
				s.Schedule(ack(out), true, FuncDelay(width))
			}
		})
	}
	// Return to zero: when the puller drops the request, release the
	// inputs and the acknowledge.
	falling := 0
	b.onFall(req(out), func(s *sim.Simulator) {
		if len(ins) == 0 {
			s.Schedule(ack(out), false, 0.15)
			return
		}
		falling = len(ins)
		for _, in := range ins {
			s.Schedule(req(in), false, 0.15)
		}
	})
	for _, in := range ins {
		b.onFall(ack(in), func(s *sim.Simulator) {
			falling--
			if falling == 0 {
				s.Schedule(ack(out), false, 0.15)
			}
		})
	}
}

// Const serves a pull channel with a constant value.
func (b *Builder) Const(out string, val uint64) {
	b.Area += WireArea
	ob := b.Bus(out)
	b.onRise(req(out), func(s *sim.Simulator) {
		ob.Val = val
		s.Schedule(ack(out), true, 0.15)
	})
	b.onFall(req(out), func(s *sim.Simulator) {
		s.Schedule(ack(out), false, 0.15)
	})
}

// CaseSel is the data-dependent dispatcher: a sync activation pulls the
// selector channel and then performs a full handshake on outs[sel]
// before completing. Out-of-range selectors complete without
// activating anything (Balsa's "else continue").
func (b *Builder) CaseSel(act, sel string, outs ...string) {
	b.Area += WireArea * float64(2+len(outs))
	sb := b.Bus(sel)
	current := -1
	b.onRise(req(act), func(s *sim.Simulator) {
		s.Schedule(req(sel), true, 0.15)
	})
	b.onRise(ack(sel), func(s *sim.Simulator) {
		idx := int(sb.Val)
		s.Schedule(req(sel), false, 0.15)
		if idx < 0 || idx >= len(outs) {
			current = -1
			s.Schedule(ack(act), true, SelectDelay)
			return
		}
		current = idx
		s.Schedule(req(outs[idx]), true, SelectDelay)
	})
	for i, out := range outs {
		i, out := i, out
		b.onRise(ack(out), func(s *sim.Simulator) {
			if current == i {
				s.Schedule(req(out), false, 0.15)
			}
		})
		b.onFall(ack(out), func(s *sim.Simulator) {
			if current == i {
				current = -1
				s.Schedule(ack(act), true, AckDelay)
			}
		})
	}
	b.onFall(req(act), func(s *sim.Simulator) {
		s.Schedule(ack(act), false, AckDelay)
	})
}

// Memory is a behavioral word memory.
type Memory struct {
	Words []uint64
	b     *Builder
}

// Memory creates a size-word memory of the given width.
func (b *Builder) Memory(size, width int) *Memory {
	b.Area += float64(size*width) * 20 // compact RAM bits vs. latches
	m := &Memory{Words: make([]uint64, size), b: b}
	b.memories = append(b.memories, m)
	return m
}

// LastMemory returns the most recently created memory (nil if none) —
// benchmarks use it to load programs and inspect results.
func (b *Builder) LastMemory() *Memory {
	if len(b.memories) == 0 {
		return nil
	}
	return b.memories[len(b.memories)-1]
}

// ReadPort serves pulls on out with the word addressed by pulling addr.
func (m *Memory) ReadPort(out, addr string, width int) {
	b := m.b
	ob, abus := b.Bus(out), b.Bus(addr)
	b.onRise(req(out), func(s *sim.Simulator) {
		s.Schedule(req(addr), true, 0.15)
	})
	b.onRise(ack(addr), func(s *sim.Simulator) {
		idx := int(abus.Val) % len(m.Words)
		ob.Val = m.Words[idx]
		s.Schedule(req(addr), false, 0.15)
		s.Schedule(ack(out), true, FuncDelay(width))
	})
	b.onFall(req(out), func(s *sim.Simulator) {
		s.Schedule(ack(out), false, 0.15)
	})
}

// WritePort performs, per sync activation, a pull of addr and data and
// writes the word.
func (m *Memory) WritePort(act, addr, data string, width int) {
	b := m.b
	abus, dbus := b.Bus(addr), b.Bus(data)
	got := 0
	b.onRise(req(act), func(s *sim.Simulator) {
		got = 0
		s.Schedule(req(addr), true, 0.15)
		s.Schedule(req(data), true, 0.15)
	})
	done := func(s *sim.Simulator) {
		got++
		if got == 2 {
			idx := int(abus.Val) % len(m.Words)
			m.Words[idx] = dbus.Val
			s.Schedule(req(addr), false, 0.15)
			s.Schedule(req(data), false, 0.15)
			s.Schedule(ack(act), true, FuncDelay(width))
		}
	}
	b.onRise(ack(addr), done)
	b.onRise(ack(data), done)
	b.onFall(req(act), func(s *sim.Simulator) {
		s.Schedule(ack(act), false, AckDelay)
	})
}

// EnvServeSync auto-acknowledges sync requests with the given delay
// (an always-ready environment on a leaf channel).
func (b *Builder) EnvServeSync(ch string, delay float64) {
	if delay < AckDelay {
		delay = AckDelay
	}
	b.onRise(req(ch), func(s *sim.Simulator) {
		s.Schedule(ack(ch), true, delay)
	})
	b.onFall(req(ch), func(s *sim.Simulator) {
		s.Schedule(ack(ch), false, delay)
	})
}

// EnvServePull serves pull requests on ch with values produced by f.
func (b *Builder) EnvServePull(ch string, delay float64, f func() uint64) {
	cb := b.Bus(ch)
	b.onRise(req(ch), func(s *sim.Simulator) {
		cb.Val = f()
		s.Schedule(ack(ch), true, delay)
	})
	b.onFall(req(ch), func(s *sim.Simulator) {
		s.Schedule(ack(ch), false, delay)
	})
}

// EnvConsumePush consumes push handshakes on ch, reporting each value.
func (b *Builder) EnvConsumePush(ch string, delay float64, f func(val uint64)) {
	cb := b.Bus(ch)
	b.onRise(req(ch), func(s *sim.Simulator) {
		f(cb.Val)
		s.Schedule(ack(ch), true, delay)
	})
	b.onFall(req(ch), func(s *sim.Simulator) {
		s.Schedule(ack(ch), false, delay)
	})
}

// Activator repeatedly activates a sync channel, counting completions.
type Activator struct {
	Ch        string
	Delay     float64
	Completed int
	Limit     int
	OnDone    func(s *sim.Simulator)
	b         *Builder
}

// NewActivator builds a repeated activator for a passive sync channel.
func (b *Builder) NewActivator(ch string, delay float64, limit int, onDone func(s *sim.Simulator)) *Activator {
	a := &Activator{Ch: ch, Delay: delay, Limit: limit, OnDone: onDone, b: b}
	b.onRise(ack(ch), func(s *sim.Simulator) {
		s.Schedule(req(ch), false, delay)
	})
	b.onFall(ack(ch), func(s *sim.Simulator) {
		a.Completed++
		if a.Completed >= a.Limit {
			if a.OnDone != nil {
				a.OnDone(s)
			}
			return
		}
		s.Schedule(req(ch), true, delay)
	})
	return a
}

// Start issues the first activation.
func (a *Activator) Start() {
	a.b.S.Schedule(req(a.Ch), true, a.Delay)
}

// Describe returns a short diagnostic for error messages.
func (a *Activator) Describe() string {
	return fmt.Sprintf("activator(%s): %d/%d", a.Ch, a.Completed, a.Limit)
}
