package sim

import (
	"context"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.RunUntilCtx(context.Background(), 10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.RunUntilCtx(context.Background(), 2)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	fired := 0
	e.At(e.Now()+1, func() {
		fired++
		e.At(e.Now()+1, func() { fired++ })
	})
	e.RunUntilCtx(context.Background(), 3)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	var e Engine
	e.At(5, func() {})
	e.RunUntilCtx(context.Background(), 5)
	ran := false
	e.At(1, func() { ran = true }) // in the past
	e.RunUntilCtx(context.Background(), 6)
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	var e Engine
	ran := false
	e.At(5, func() { ran = true })
	e.RunUntilCtx(context.Background(), 4)
	if ran {
		t.Fatal("event beyond boundary executed")
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %v", e.Now())
	}
	e.RunUntilCtx(context.Background(), 5)
	if !ran {
		t.Fatal("boundary event skipped")
	}
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestScheduledExecutedCounters(t *testing.T) {
	var e Engine
	if e.seq != 0 || e.done != 0 {
		t.Fatalf("fresh engine counters = %d/%d", e.seq, e.done)
	}
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() {})
	}
	if e.seq != 5 {
		t.Fatalf("Scheduled = %d, want 5", e.seq)
	}
	if e.done != 0 {
		t.Fatalf("Executed = %d before any Step", e.done)
	}
	e.RunUntilCtx(context.Background(), 2)
	if e.done != 3 {
		t.Fatalf("Executed = %d after running through t=2, want 3", e.done)
	}
	e.RunUntilCtx(context.Background(), 10)
	if e.done != e.seq {
		t.Fatalf("drained engine: Executed %d != Scheduled %d", e.done, e.seq)
	}
	// Counters are process-lifetime: they keep growing across reuse
	// rather than resetting, which is why resume-invariant outputs must
	// never include them.
	e.At(11, func() {})
	if e.seq != 6 {
		t.Fatalf("Scheduled = %d after reuse, want 6", e.seq)
	}
}

// ---- time-wheel vs reference heap equivalence ----

// refQueue is the container/heap implementation the time-wheel
// replaced, kept as the ordering oracle for the property test.
type refEvent struct {
	time float64
	seq  uint64
	id   int
}

type refQueue struct {
	now    float64
	seq    uint64
	events []refEvent
}

func (q *refQueue) push(t float64, id int) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.events = append(q.events, refEvent{time: t, seq: q.seq, id: id})
	for i := len(q.events) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.events[i], q.events[p] = q.events[p], q.events[i]
		i = p
	}
}

func (q *refQueue) less(i, j int) bool {
	if q.events[i].time != q.events[j].time {
		return q.events[i].time < q.events[j].time
	}
	return q.events[i].seq < q.events[j].seq
}

func (q *refQueue) pop() refEvent {
	top := q.events[0]
	n := len(q.events) - 1
	q.events[0] = q.events[n]
	q.events = q.events[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c = c + 1
		}
		if !q.less(c, i) {
			break
		}
		q.events[i], q.events[c] = q.events[c], q.events[i]
		i = c
	}
	q.now = top.time
	return top
}

// splitmix64 is a tiny deterministic PRNG for the property test.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4d049bb133111
	return z ^ (z >> 31)
}

func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// TestWheelMatchesHeapProperty drives the time-wheel and the reference
// heap through the same randomized schedule — bursts of inserts at
// near, same-tick, far-future and past times, interleaved with pops
// and RunUntil boundaries, plus events that schedule more events — and
// requires the execution order to match exactly.
func TestWheelMatchesHeapProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rnd := splitmix64(0xfeed + uint64(trial)*1000003)
		var e Engine
		var ref refQueue
		var got, want []int
		nextID := 0

		schedule := func(t0 float64) {
			id := nextID
			nextID++
			// One in four events reschedules a follow-up, exercising
			// inserts from inside callbacks (cursor mid-frame).
			if rnd.next()%4 == 0 {
				child := nextID
				nextID++
				dt := rnd.float() * 900
				e.At(t0, func() {
					got = append(got, id)
					e.At(e.Now()+dt, func() { got = append(got, child) })
				})
				ref.push(t0, -id-1) // marker: expand on pop
				refChildren[id] = refChild{child, dt}
			} else {
				e.At(t0, func() { got = append(got, id) })
				ref.push(t0, id)
			}
		}

		for op := 0; op < 400; op++ {
			switch rnd.next() % 8 {
			case 0, 1, 2: // near-future insert
				schedule(e.Now() + rnd.float()*300)
			case 3: // same-tick burst (FIFO contract)
				base := e.Now() + rnd.float()*100
				for k := 0; k < 3; k++ {
					schedule(base)
				}
			case 4: // far future: higher wheel levels / overflow
				exp := rnd.next() % 9 // up to ~1e8 s ahead
				mul := 1.0
				for i := uint64(0); i < exp; i++ {
					mul *= 10
				}
				schedule(e.Now() + rnd.float()*mul)
			case 5: // past (clamps to now)
				schedule(e.Now() - rnd.float()*50)
			case 6: // pop a few
				for k := 0; k < 3 && e.cnt > 0; k++ {
					e.Step()
					stepRef(&ref, &want)
				}
			case 7: // advance the clock across a boundary
				t1 := e.Now() + rnd.float()*5000
				e.RunUntilCtx(context.Background(), t1)
				for len(ref.events) > 0 && ref.events[0].time <= t1 {
					stepRef(&ref, &want)
				}
				if ref.now < t1 {
					ref.now = t1
				}
			}
		}
		for e.cnt > 0 {
			e.Step()
			stepRef(&ref, &want)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, reference executed %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: wheel %v vs heap %v", trial, i, got[i], want[i])
			}
		}
		for k := range refChildren {
			delete(refChildren, k)
		}
	}
}

type refChild struct {
	id int
	dt float64
}

var refChildren = map[int]refChild{}

// stepRef pops the reference queue, expanding reschedule markers the
// same way the engine's callbacks do.
func stepRef(q *refQueue, order *[]int) {
	ev := q.pop()
	if ev.id < 0 {
		id := -ev.id - 1
		*order = append(*order, id)
		c := refChildren[id]
		q.push(ev.time+c.dt, c.id)
		return
	}
	*order = append(*order, ev.id)
}

// TestWheelLongHorizon checks ordering across cascades spanning the
// full wheel hierarchy: events days and weeks apart fire in order and
// interleave correctly with near-term periodic ticks scheduled as the
// clock advances.
func TestWheelLongHorizon(t *testing.T) {
	var e Engine
	var got []float64
	times := []float64{0.1, 30, 1800, 86400, 7 * 86400, 45 * 86400, 400 * 86400}
	for _, tt := range times {
		tt := tt
		e.At(tt, func() { got = append(got, tt) })
	}
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; ticks < 900 {
			e.At(e.Now()+43200, tick)
		}
	}
	e.At(e.Now()+43200, tick)
	e.RunUntilCtx(context.Background(), 500*86400)
	if len(got) != len(times) {
		t.Fatalf("fired %d of %d events", len(got), len(times))
	}
	for i, tt := range times {
		if got[i] != tt {
			t.Fatalf("order: got %v", got)
		}
	}
	if want := 900; ticks != want {
		t.Fatalf("periodic ticks = %d, want %d", ticks, want)
	}
	if e.cnt != 0 {
		t.Fatalf("pending = %d", e.cnt)
	}
}

// TestEngineStepAllocFree pins the arena contract: steady-state
// schedule/execute cycles after warm-up perform zero heap allocations
// inside the engine.
func TestEngineStepAllocFree(t *testing.T) {
	var e Engine
	var fn func()
	fn = func() {
		if e.Now() < 1e6 {
			e.At(e.Now()+7.25, fn)
		}
	}
	for i := 0; i < 64; i++ {
		e.At(e.Now()+float64(i)*3.5, fn)
	}
	e.RunUntilCtx(context.Background(), 1e4) // warm the arena
	allocs := testing.AllocsPerRun(200, func() {
		e.At(e.Now()+11, func() {})
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("engine step allocates %.1f times per op, want 0", allocs)
	}
}
