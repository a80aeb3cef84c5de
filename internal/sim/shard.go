package sim

import "sync"

// Group couples one global-lane engine with K shard engines under a
// conservative-lookahead window schedule (Chandy–Misra style). The model
// is partitioned so that every cross-shard interaction is a scheduled
// handoff with delay >= the group's lookahead; within one window
// [base, w), w <= base+lookahead, each shard's events are then causally
// closed and the shards execute concurrently. At the window barrier the
// coordinator drains cross-shard mailboxes into the destination heaps,
// runs the model's barrier hook, and executes global-lane events due at
// the barrier time.
//
// Determinism contract: the window-boundary sequence is derived only
// from the union of pending event times (partition-independent), and
// same-timestamp ordering uses the (at, k1, seq) lane keys stamped by
// the scheduling side (see entry.k1) — so a fixed-seed run produces
// byte-identical results for any shard count over the same model.
//
// The global lane is the engine the model was built against: existing
// code that schedules timers, monitors, or workload arrivals on it runs
// only at barriers, with every shard quiesced, and may therefore touch
// any shard's state directly.
type Group struct {
	global    *Engine
	shards    []*Engine
	lookahead Time
	stopped   bool

	// mailboxes is a flattened [src*K+dst] matrix of pending cross-shard
	// handoffs. During a window each slice has exactly one writer (the
	// src shard's worker); the coordinator drains and resets them at the
	// barrier, so no locks are needed — the window dispatch/join is the
	// synchronization. Slices keep their capacity across barriers.
	mailboxes [][]mailboxEntry

	// transfer, when set, runs on the coordinator for every drained
	// mailbox entry, letting the model move resource ownership (e.g. a
	// packet's shard-local pool) to the destination shard.
	transfer func(a, b any, dstShard int)

	// onBarrier, when set, runs on the coordinator at every window
	// barrier after mailboxes drain and before global events execute.
	// All shard clocks read the barrier time; all workers are quiesced.
	onBarrier func(now Time)

	inWindow bool // true only while shard workers may be executing

	work    []chan Time
	wg      sync.WaitGroup
	started bool
}

// mailboxEntry is one deferred cross-shard scheduling request, drained
// into the destination shard's heap in (src shard, append seq) order.
// The heap's (at, lane, seq) keys make the insertion order irrelevant to
// execution order; draining in a fixed order keeps the walk cache-warm
// and the transfer hook deterministic.
type mailboxEntry struct {
	at   Time
	lane uint64
	seq  uint64
	ctx  uint64
	cb   Callback
	a, b any
}

// NewGroup wraps an existing engine as the global lane of a sharded
// group with k shard engines. lookahead must be positive: it is the
// minimum cross-shard handoff delay the model guarantees. The global
// engine's Run/RunUntil/Stop delegate to the group from here on.
func NewGroup(global *Engine, k int, lookahead Time) *Group {
	if k < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	if global.group != nil {
		panic("sim: engine already belongs to a group")
	}
	g := &Group{
		global:    global,
		shards:    make([]*Engine, k),
		lookahead: lookahead,
		mailboxes: make([][]mailboxEntry, k*k),
		work:      make([]chan Time, k),
	}
	for i := range g.shards {
		g.shards[i] = &Engine{now: global.now}
	}
	global.group = g
	return g
}

// Global returns the group's global-lane engine (the one the model was
// constructed with).
func (g *Group) Global() *Engine { return g.global }

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns shard engine i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the conservative window size.
func (g *Group) Lookahead() Time { return g.lookahead }

// InWindow reports whether shard workers may currently be executing.
// Model code uses it to choose between the mailbox path (in-window,
// cross-shard) and direct scheduling (barrier/global context, when every
// heap is quiescent). The flag only changes while workers are quiesced,
// so in-window readers always see true.
func (g *Group) InWindow() bool { return g.inWindow }

// SetTransfer installs the cross-shard ownership-transfer hook.
func (g *Group) SetTransfer(fn func(a, b any, dstShard int)) { g.transfer = fn }

// OnBarrier installs the barrier hook.
func (g *Group) OnBarrier(fn func(now Time)) { g.onBarrier = fn }

// Send appends a cross-shard scheduling request to the (src, dst)
// mailbox. It must be called from src's shard context during a window;
// the entry lands in dst's heap at the next barrier. at must be >= the
// end of the current window, which the lookahead guarantees for any
// handoff delayed by at least Lookahead.
func (g *Group) Send(src, dst int, at Time, lane, seq, ctx uint64, cb Callback, a, b any) {
	box := &g.mailboxes[src*len(g.shards)+dst]
	*box = append(*box, mailboxEntry{at: at, lane: lane, seq: seq, ctx: ctx, cb: cb, a: a, b: b})
}

// drainMailboxes moves every pending entry into its destination heap,
// walking (dst, src) in ascending order and each mailbox in append
// order. Entry timestamps are >= the barrier time (the lookahead
// invariant), so insertion never violates a destination clock.
func (g *Group) drainMailboxes() {
	k := len(g.shards)
	for dst := 0; dst < k; dst++ {
		for src := 0; src < k; src++ {
			box := &g.mailboxes[src*k+dst]
			if len(*box) == 0 {
				continue
			}
			for i := range *box {
				e := &(*box)[i]
				if g.transfer != nil {
					g.transfer(e.a, e.b, dst)
				}
				g.shards[dst].AtKeyed(e.at, e.lane, e.seq, e.ctx, e.cb, e.a, e.b)
				*e = mailboxEntry{}
			}
			*box = (*box)[:0]
		}
	}
}

// startWorkers launches one goroutine per shard for the duration of a
// run. Workers block on their channel between windows; a close drains
// them at run end, so an idle Group holds no goroutines.
func (g *Group) startWorkers() {
	if g.started || len(g.shards) == 1 {
		return
	}
	g.started = true
	for i := range g.shards {
		g.work[i] = make(chan Time, 1)
		sh := g.shards[i]
		ch := g.work[i]
		go func() {
			for w := range ch {
				sh.runWindow(w)
				g.wg.Done()
			}
		}()
	}
}

func (g *Group) stopWorkers() {
	if !g.started {
		return
	}
	g.started = false
	for i := range g.work {
		close(g.work[i])
		g.work[i] = nil
	}
}

// runWindows executes one window [*, w) across the shards. Shards with
// no due events are skipped (their clocks advance at the barrier). With
// one busy shard — or a single-shard group — the window runs inline on
// the coordinator, avoiding the channel round-trip.
func (g *Group) runWindows(w Time) {
	busy := 0
	var only *Engine
	for _, sh := range g.shards {
		if sh.nextAt() < w {
			busy++
			only = sh
		}
	}
	if busy == 0 {
		return
	}
	if busy == 1 || len(g.shards) == 1 {
		g.inWindow = true
		only.runWindow(w)
		g.inWindow = false
		return
	}
	g.inWindow = true
	for i, sh := range g.shards {
		if sh.nextAt() < w {
			g.wg.Add(1)
			g.work[i] <- w
		}
	}
	g.wg.Wait()
	g.inWindow = false
}

// advance fast-forwards every clock (shards and global) that is behind t.
func (g *Group) advance(t Time) {
	for _, sh := range g.shards {
		if sh.now < t {
			sh.now = t
		}
	}
	if g.global.now < t {
		g.global.now = t
	}
}

// Run executes the group until every heap drains or Stop is called.
func (g *Group) Run() { g.runUntil(maxTime, true) }

// RunUntil executes every event with timestamp <= end across all shards
// and the global lane, then sets every clock to end.
func (g *Group) RunUntil(end Time) { g.runUntil(end+1, false) }

// Stop makes the group's run return after the current barrier completes.
func (g *Group) Stop() { g.stopped = true }

// runUntil is the coordinator loop. bound is exclusive: events at
// timestamps < bound execute. With drain set, bound is ignored for the
// final clock (Run semantics); otherwise clocks finish at bound-1.
func (g *Group) runUntil(bound Time, drain bool) {
	g.stopped = false
	g.global.stopped = false
	g.startWorkers()
	defer g.stopWorkers()
	for !g.stopped {
		next := g.global.nextAt()
		for _, sh := range g.shards {
			if t := sh.nextAt(); t < next {
				next = t
			}
		}
		if next >= bound {
			break
		}
		base := g.global.now
		if next > base {
			base = next // jump over idle gaps in one window
		}
		w := base + g.lookahead
		if w > bound {
			w = bound
		}
		if gt := g.global.nextAt(); gt < w {
			w = gt // truncate so global events fire exactly on time
		}
		if w > base {
			g.runWindows(w)
		}
		g.advance(w)
		g.drainMailboxes()
		if g.onBarrier != nil {
			g.onBarrier(w)
		}
		for !g.stopped {
			if at := g.global.nextAt(); at > w || at >= bound {
				break
			}
			g.global.Step()
		}
	}
	if !drain && !g.stopped {
		g.advance(bound - 1)
		for _, sh := range g.shards {
			if sh.now >= bound {
				sh.now = bound - 1
			}
		}
		if g.global.now >= bound {
			g.global.now = bound - 1
		}
	}
}

// Fired returns the total events executed across the global lane and all
// shards.
func (g *Group) Fired() uint64 {
	n := g.global.fired
	for _, sh := range g.shards {
		n += sh.fired
	}
	return n
}

// Pending returns the total scheduled events across all heaps.
func (g *Group) Pending() int {
	n := g.global.Pending()
	for _, sh := range g.shards {
		n += sh.Pending()
	}
	return n
}

// MaxPending returns the sum of per-engine queue high-water marks — an
// upper bound on the fabric-wide simultaneous backlog (the per-shard
// peaks need not coincide in time).
func (g *Group) MaxPending() int {
	n := g.global.maxPending
	for _, sh := range g.shards {
		n += sh.maxPending
	}
	return n
}

// EventSlots returns the total event structs allocated across all
// engines (the pooled-slot high-water mark).
func (g *Group) EventSlots() uint64 {
	n := g.global.allocated
	for _, sh := range g.shards {
		n += sh.allocated
	}
	return n
}
