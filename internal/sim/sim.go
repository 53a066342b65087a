// Package sim is a minimal discrete-event simulation engine: a clock
// and a time-ordered event queue with deterministic tie-breaking. The
// platform simulation uses it to drive trace arrivals, autoscaler
// ticks and migration cooldowns on one timeline.
//
// The queue is a hierarchical timing wheel (4 levels x 64 slots, 0.25 s
// base tick, ~48 simulated days of span before the overflow list)
// backed by a pooled event arena: scheduling an event is an index
// allocation from a free-list, not a heap allocation, and steady-state
// At/Step cycles are allocation-free. The ordering contract is
// identical to the container/heap implementation it replaced — events
// fire in (time, seq) order, FIFO among simultaneous events — proven
// by a property test against the reference heap (sim_test.go).
package sim

import (
	"context"
	"math"
	"math/bits"

	"gsight/internal/telemetry"
)

const (
	wheelLevels = 4
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1

	// invTick converts seconds to ticks (tick = 0.25 s). The absolute
	// tick is clamped below 2^61 so every abs_k shift stays in range;
	// clamping only coarsens placement — ordering always compares the
	// stored float time, never the tick.
	invTick       = 4.0
	maxTick       = int64(1) << 61
	nilIdx        = int32(-1)
	overflowShift = wheelLevels * wheelBits // 24: ticks beyond abs4 resolution
)

// twEvent is one scheduled callback in the arena. Events form
// singly-linked per-slot lists through next; list order is arbitrary
// (pops scan for the (time, seq) minimum).
type twEvent struct {
	time float64
	seq  uint64
	fn   func()
	next int32
}

// Engine is the simulation core. The zero value is ready to use.
type Engine struct {
	now  float64
	seq  uint64
	cnt  int
	done uint64 // events executed since construction

	// cur is the wheel cursor in absolute ticks. Invariants: cur never
	// passes the earliest queued event's tick, and entering a new
	// L1/L2/L3 frame cascades that frame's slot first, so every level-k
	// event is strictly later than every level-(k-1) event.
	cur int64

	heads [wheelLevels][wheelSlots]int32
	occ   [wheelLevels]uint64 // per-level slot occupancy bitmaps

	overflow int32 // events beyond the L3 horizon, unordered list

	arena []twEvent
	free  int32 // free-list head into arena

	// min cache: a findMin result (always a level-0 resident) kept
	// valid across At calls that don't beat it; -1 when unknown.
	minIdx  int32
	minSlot int32

	ins telemetry.SimInstruments

	initialized bool
}

func (e *Engine) init() {
	if e.initialized {
		return
	}
	e.initialized = true
	for l := range e.heads {
		for s := range e.heads[l] {
			e.heads[l][s] = nilIdx
		}
	}
	e.overflow = nilIdx
	e.free = nilIdx
	e.minIdx = nilIdx
}

// Instrument attaches a telemetry sink (nil-safe).
func (e *Engine) Instrument(s *telemetry.Sink) { e.ins = s.Sim() }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// tickOf converts a time to an absolute tick, clamped to the
// representable range (NaN and huge times park at the clamp; their
// relative order is still decided by the float comparison at pop).
func tickOf(t float64) int64 {
	v := t * invTick
	if !(v < float64(maxTick)) {
		return maxTick
	}
	if v < 0 {
		return 0
	}
	return int64(v)
}

// less orders events by (time, seq): FIFO among simultaneous events.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	return ea.seq < eb.seq
}

// alloc takes an event record from the free-list, growing the arena
// only when it is exhausted.
func (e *Engine) alloc(t float64, seq uint64, fn func()) int32 {
	idx := e.free
	if idx != nilIdx {
		e.free = e.arena[idx].next
	} else {
		e.arena = append(e.arena, twEvent{})
		idx = int32(len(e.arena) - 1)
	}
	e.arena[idx] = twEvent{time: t, seq: seq, fn: fn, next: nilIdx}
	return idx
}

// release returns a record to the free-list, dropping the fn reference
// so the closure can be collected.
func (e *Engine) release(idx int32) {
	e.arena[idx].fn = nil
	e.arena[idx].next = e.free
	e.free = idx
}

// place links an event into the wheel level chosen by slot equality
// against the cursor: level k is the smallest k where the event shares
// the cursor's level-(k+1) frame. This rule (unlike a plain delta
// threshold) guarantees level-k slots never wrap within a frame and
// that every higher-level event is later than every lower-level one.
func (e *Engine) place(idx int32) {
	tick := tickOf(e.arena[idx].time)
	if tick < e.cur {
		tick = e.cur // defensive: At already clamps times below now
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint((l + 1) * wheelBits)
		if tick>>shift == e.cur>>shift {
			s := (tick >> uint(l*wheelBits)) & wheelMask
			e.arena[idx].next = e.heads[l][s]
			e.heads[l][s] = idx
			e.occ[l] |= 1 << uint(s)
			return
		}
	}
	e.arena[idx].next = e.overflow
	e.overflow = idx
}

// At schedules fn at absolute time t; times in the past run at the
// current time (immediately on the next step).
func (e *Engine) At(t float64, fn func()) {
	e.init()
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	idx := e.alloc(t, e.seq, fn)
	e.place(idx)
	e.cnt++
	// A new global minimum must share the cached minimum's L1 frame
	// (its tick is <= the cached one's), so it landed in level 0 and
	// the cache can be retargeted instead of invalidated.
	if e.minIdx != nilIdx && e.less(idx, e.minIdx) {
		e.minIdx = idx
		e.minSlot = int32((tickOf(t)) & wheelMask)
		if tickOf(t) < e.cur {
			e.minSlot = int32(e.cur & wheelMask)
		}
	}
	e.ins.Scheduled.Inc()
	e.ins.QueueDepth.SetInt(e.cnt)
}

// cascade relinks every event of a slot one level down (or into the
// wheels, for the overflow list) after the cursor entered its frame.
func (e *Engine) cascadeSlot(level int, slot int64) {
	idx := e.heads[level][slot]
	e.heads[level][slot] = nilIdx
	e.occ[level] &^= 1 << uint(slot)
	for idx != nilIdx {
		next := e.arena[idx].next
		e.place(idx)
		idx = next
	}
}

// scanSlot returns the (time, seq)-minimal event of a level-0 slot.
func (e *Engine) scanSlot(slot int64) int32 {
	best := e.heads[0][slot]
	for idx := e.arena[best].next; idx != nilIdx; idx = e.arena[idx].next {
		if e.less(idx, best) {
			best = idx
		}
	}
	return best
}

// findMin advances the cursor (cascading frames as it enters them)
// until the earliest event sits in level 0, then caches and returns
// it. Requires cnt > 0.
func (e *Engine) findMin() int32 {
	if e.minIdx != nilIdx {
		return e.minIdx
	}
	for {
		// Level 0: occupied slots are always at positions >= the
		// cursor's (no wrap, see place), so mask the lower ones off.
		if m := e.occ[0] & (^uint64(0) << uint(e.cur&wheelMask)); m != 0 {
			s := int64(bits.TrailingZeros64(m))
			e.minIdx = e.scanSlot(s)
			e.minSlot = int32(s)
			return e.minIdx
		}
		advanced := false
		for l := 1; l < wheelLevels; l++ {
			pos := uint((e.cur >> uint(l*wheelBits)) & wheelMask)
			m := e.occ[l] & (^uint64(0) << pos)
			if m == 0 {
				continue
			}
			s := int64(bits.TrailingZeros64(m))
			shift := uint(l * wheelBits)
			frame := (e.cur>>shift)&^int64(wheelMask) | s
			if start := frame << shift; start > e.cur {
				e.cur = start
			}
			e.cascadeSlot(l, s)
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// Wheels empty: pull the earliest overflow frame in.
		minAbs := int64(math.MaxInt64)
		for idx := e.overflow; idx != nilIdx; idx = e.arena[idx].next {
			if a := tickOf(e.arena[idx].time) >> overflowShift; a < minAbs {
				minAbs = a
			}
		}
		e.cur = minAbs << overflowShift
		var keep int32 = nilIdx
		idx := e.overflow
		for idx != nilIdx {
			next := e.arena[idx].next
			if tickOf(e.arena[idx].time)>>overflowShift == minAbs {
				e.place(idx)
			} else {
				e.arena[idx].next = keep
				keep = idx
			}
			idx = next
		}
		e.overflow = keep
	}
}

// unlink removes an event from its level-0 slot list.
func (e *Engine) unlink(idx, slot int32) {
	head := e.heads[0][slot]
	if head == idx {
		e.heads[0][slot] = e.arena[idx].next
	} else {
		prev := head
		for e.arena[prev].next != idx {
			prev = e.arena[prev].next
		}
		e.arena[prev].next = e.arena[idx].next
	}
	if e.heads[0][slot] == nilIdx {
		e.occ[0] &^= 1 << uint(slot)
	}
}

// Step executes the next event; it reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	if e.cnt == 0 {
		return false
	}
	idx := e.findMin()
	e.unlink(idx, e.minSlot)
	e.minIdx = nilIdx
	if t := tickOf(e.arena[idx].time); t > e.cur {
		e.cur = t
	}
	e.now = e.arena[idx].time
	fn := e.arena[idx].fn
	e.release(idx)
	e.cnt--
	e.done++
	e.ins.Executed.Inc()
	e.ins.QueueDepth.SetInt(e.cnt)
	fn()
	return true
}

// peekTime returns the earliest queued event's time; call only when
// cnt > 0.
func (e *Engine) peekTime() float64 {
	return e.arena[e.findMin()].time
}

// RunUntilCtx executes events until the clock would pass t; the clock
// finishes at exactly t. It checks ctx between events and returns
// ctx.Err() when the context is done, leaving the clock wherever the
// last executed event put it.
func (e *Engine) RunUntilCtx(ctx context.Context, t float64) error {
	for e.cnt > 0 && e.peekTime() <= t {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	return ctx.Err()
}
