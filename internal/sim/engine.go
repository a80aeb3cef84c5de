package sim

import "math/bits"

// event is one scheduled callback slot. Slots are owned by the engine:
// after an event fires or is cancelled its slot returns to an engine free
// list and is reused by a later At/After, so a steady-state simulation
// schedules without allocating. The generation counter makes stale
// Handles (kept by callers across a recycle) permanently inert. The
// event's ordering key lives in its queue entry, not here.
type event struct {
	gen uint64 // bumped on every recycle; Handles carry the gen they saw

	// ctx is the lane inherited by children: while this event's callback
	// runs, any event it schedules via At/After/AtCall/AfterCall is
	// stamped k1=ctx. AtKeyed sets both explicitly.
	ctx uint64

	// Exactly one of fn / cb is set while scheduled; both nil once the
	// slot is free. The cb form exists so hot paths can schedule without
	// allocating a closure: cb is typically a package-level func and a, b
	// carry its receiver/argument pointers (pointers boxed in an `any`
	// do not allocate).
	fn   func()
	cb   Callback
	a, b any

	index  int // queue index, -1 once popped or cancelled
	engine *Engine
}

// Callback is the allocation-free callback form: a package-level (or
// otherwise pre-built) function receiving the two values it was scheduled
// with. See Engine.AtCall.
type Callback func(a, b any)

// Handle refers to a scheduled event. It is a small value (no heap
// allocation) and stays safe across the event's whole lifecycle: once the
// event fires or is cancelled, the engine recycles the slot and every
// outstanding Handle to it becomes inert — Cancel on a stale Handle is a
// no-op even if the slot now carries an unrelated event. The zero Handle
// is valid and behaves like an already-cancelled event.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its scheduled event.
func (h Handle) live() bool {
	return h.ev != nil && h.ev.gen == h.gen && (h.ev.fn != nil || h.ev.cb != nil)
}

// At returns the virtual time the event is scheduled for, or 0 if the
// event already fired or was cancelled.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.engine.events[h.ev.index].at
}

// Cancelled reports whether the event fired, was cancelled, or was never
// scheduled (the zero Handle).
func (h Handle) Cancelled() bool { return !h.live() }

// Cancel prevents the event from firing. The event leaves the queue at
// once, so Pending drops immediately. Cancelling an event that already
// fired, was cancelled, or whose slot has since been reused is a no-op.
func (h Handle) Cancel() {
	if !h.live() {
		return
	}
	ev := h.ev
	ev.engine.events.remove(ev.index)
	ev.engine.recycle(ev)
}

// entry is one queue element: an event with its ordering key held
// inline, so sift comparisons never dereference the event.
//
// k1 is the ordering lane: events with equal timestamps sort by
// (k1, seq). Legacy (unsharded) scheduling leaves k1 at zero, so the
// order degenerates to the historical (at, seq) and stays
// byte-identical. Sharded runs use lanes to make same-timestamp
// ordering independent of how the topology is partitioned: a lane is
// shared only by events whose relative seq order is itself
// partition-independent (see shard.go and DESIGN.md §14).
type entry struct {
	at  Time
	k1  uint64
	seq uint64
	ev  *event
}

// before is the queue order: (at, k1, seq) lexicographically. No two
// pending events share a key, so the order is strict and total, and the
// firing sequence does not depend on the queue's shape.
func (x *entry) before(y *entry) bool { return lessBit(x, y) != 0 }

// lessBit is before as 1 or 0, computed without branches: the borrow out
// of the 192-bit subtraction x−y over (at, k1, seq), with at's sign bit
// flipped so signed order becomes unsigned order. Sift comparisons are
// close to coin flips, so a branch on each would mostly mispredict.
func lessBit(x, y *entry) int {
	_, b := bits.Sub64(x.seq, y.seq, 0)
	_, b = bits.Sub64(x.k1, y.k1, b)
	_, b = bits.Sub64(uint64(x.at)^1<<63, uint64(y.at)^1<<63, b)
	return int(b)
}

// eventQueue is a 4-ary min-heap of entries. Every move writes the
// event's index, so Cancel removes an event in O(log n) without a search.
type eventQueue []entry

func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// pop removes and returns the earliest entry. The queue must not be empty.
func (q *eventQueue) pop() entry {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the entry at index i, refilling the hole with the last
// entry and sifting it whichever way the order needs.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	if i > 0 && last.before(&h[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up settles x into the hole at i, moving later parents down.
func (q eventQueue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down settles x into the hole at i, moving the earliest child up.
func (q eventQueue) down(i int, x entry) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			// Earliest of four children as a branch-free tournament.
			m += lessBit(&q[c+1], &q[c])
			m2 := c + 2 + lessBit(&q[c+3], &q[c+2])
			m ^= (m ^ m2) & -lessBit(&q[m2], &q[m])
		} else {
			for j := c + 1; j < n; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now        Time
	events     eventQueue
	free       []*event // recycled slots, reused by At/After
	seq        uint64
	stopped    bool
	fired      uint64
	maxPending int
	allocated  uint64 // event slots ever allocated (pool high-water mark)

	// curCtx is the lane of the event currently executing (zero between
	// events and for all legacy scheduling). New events inherit it.
	curCtx uint64

	// group, when non-nil, marks this engine as the global lane of a
	// sharded Group: Run/RunUntil/Stop delegate to the group's windowed
	// coordinator instead of draining this heap alone.
	group *Group
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return len(e.events) }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// MaxPending returns the high-water mark of the event queue, a proxy for
// how bursty the model's scheduling is.
func (e *Engine) MaxPending() int { return e.maxPending }

// EventSlots returns how many event structs the engine ever allocated.
// In an allocation-free steady state this stops growing: it equals the
// peak number of simultaneously pending events, not the number fired.
func (e *Engine) EventSlots() uint64 { return e.allocated }

// acquire returns a free event slot, allocating only when the free list
// is empty (cold start or a new pending high-water mark).
func (e *Engine) acquire() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	e.allocated++
	return &event{engine: e}
}

// recycle clears a slot and returns it to the free list. The generation
// bump invalidates every outstanding Handle to the old event.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.cb = nil
	ev.a = nil
	ev.b = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// schedule stamps an acquired, filled slot with the engine's next key
// and queues it.
func (e *Engine) schedule(ev *event, t Time) Handle {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev.ctx = e.curCtx
	return e.push(entry{at: t, k1: e.curCtx, seq: e.seq, ev: ev})
}

// push queues a filled slot under its key and tracks the high-water mark.
func (e *Engine) push(x entry) Handle {
	e.events.push(x)
	if len(e.events) > e.maxPending {
		e.maxPending = len(e.events)
	}
	return Handle{ev: x.ev, gen: x.ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) Handle {
	ev := e.acquire()
	ev.fn = fn
	return e.schedule(ev, t)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules cb(a, b) at absolute virtual time t without allocating:
// the event slot comes from the engine pool and cb is expected to be a
// package-level func (a closure would re-introduce the allocation this
// path exists to avoid). Pointer arguments do not allocate when boxed;
// avoid passing non-pointer values.
func (e *Engine) AtCall(t Time, cb Callback, a, b any) Handle {
	ev := e.acquire()
	ev.cb = cb
	ev.a = a
	ev.b = b
	return e.schedule(ev, t)
}

// AfterCall schedules cb(a, b) d nanoseconds from now. See AtCall.
func (e *Engine) AfterCall(d Time, cb Callback, a, b any) Handle {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, cb, a, b)
}

// AtKeyed schedules cb(a, b) at time t with an explicit ordering lane,
// lane-local sequence number, and child context, bypassing the engine's
// own seq counter. Sharded dataplanes use it for packet arrivals: the
// (lane, seq) pair is derived from the transmitting link, so arrival
// order at equal timestamps does not depend on which shard the sender
// landed on. ctx is inherited by everything the callback schedules.
func (e *Engine) AtKeyed(t Time, lane, seq, ctx uint64, cb Callback, a, b any) Handle {
	ev := e.acquire()
	ev.cb = cb
	ev.a = a
	ev.b = b
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev.ctx = ctx
	return e.push(entry{at: t, k1: lane, seq: seq, ev: ev})
}

// Stop makes Run and RunUntil return after the current event completes.
// On the global lane of a sharded Group this stops the whole group.
func (e *Engine) Stop() {
	e.stopped = true
	if e.group != nil {
		e.group.stopped = true
	}
}

// Step executes the single earliest pending event. It reports whether an
// event was executed. The slot is recycled before the callback runs, so
// callbacks scheduling new events reuse it immediately.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	top := e.events.pop()
	ev := top.ev
	e.now = top.at
	e.curCtx = ev.ctx
	fn, cb, a, b := ev.fn, ev.cb, ev.a, ev.b
	e.recycle(ev)
	e.fired++
	if cb != nil {
		cb(a, b)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or Stop is called. On the
// global lane of a sharded Group it runs the group's windowed schedule.
func (e *Engine) Run() {
	if e.group != nil {
		e.group.Run()
		return
	}
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= end, then sets the clock to
// end. Events scheduled after end remain pending. On the global lane of a
// sharded Group it runs the group's windowed schedule.
func (e *Engine) RunUntil(end Time) {
	if e.group != nil {
		e.group.RunUntil(end)
		return
	}
	e.stopped = false
	for !e.stopped {
		if len(e.events) == 0 || e.events[0].at > end {
			break
		}
		e.Step()
	}
	if e.now < end {
		e.now = end
	}
}

// nextAt returns the timestamp of the earliest pending event, or
// maxTime when the queue is empty.
func (e *Engine) nextAt() Time {
	if len(e.events) == 0 {
		return maxTime
	}
	return e.events[0].at
}

// runWindow executes every pending event strictly before w, then
// fast-forwards the clock to w and resets the inherited lane. It is the
// per-shard body of one conservative-lookahead window: all events < w are
// causally closed within the shard (cross-shard influence cannot arrive
// before w), so shards run their windows concurrently.
func (e *Engine) runWindow(w Time) {
	for e.nextAt() < w {
		e.Step()
	}
	if e.now < w {
		e.now = w
	}
	e.curCtx = 0
}

// maxTime is the sentinel "no event" timestamp.
const maxTime = Time(1<<63 - 1)

// Ticker invokes fn every period, starting at now+period, until cancelled.
// Each tick's event slot comes from (and returns to) the engine pool, and
// the rescheduling closure is built once, so a running ticker does not
// allocate.
type Ticker struct {
	engine *Engine
	period Time
	fn     func()
	run    func()
	ev     Handle
	done   bool
}

// NewTicker starts a periodic callback. period must be positive.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.run = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.engine.After(t.period, t.run)
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
	t.ev.Cancel()
}
