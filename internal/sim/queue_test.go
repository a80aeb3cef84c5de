package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- full-key differential test of the event queue ---

// refKey is the (at, k1, seq) ordering key the queue must honour.
type refKey struct {
	at      Time
	k1, seq uint64
}

func (x refKey) less(y refKey) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.k1 != y.k1 {
		return x.k1 < y.k1
	}
	return x.seq < y.seq
}

// Inherited lanes (ctx values) and explicit AtKeyed lanes are disjoint
// sets, as in netsim, so no two live events can share a key. They
// interleave numerically so equal timestamps mix both kinds.
var (
	diffCtxLanes   = []uint64{0, 5, 9}
	diffKeyedLanes = []uint64{3, 7, 11}
)

const (
	diffSendLane   = 13 // + src shard: the cross-shard mailbox lanes
	diffGlobalLane = 17 // global-lane events scheduled onto shards
	diffLookahead  = Time(4)
)

// diffRec is a live event as the reference sees it.
type diffRec struct {
	id  int
	key refKey
	ctx uint64
}

// diffModel mirrors one engine's pending set independently of the queue:
// its own seq counter, inherited lane and per-lane counters. Every firing
// must carry the least key among the model's live events, whatever mix of
// scheduling, cancellation, stale-handle cancels and slot reuse came
// before — the order a reference sort by (at, k1, seq) gives.
type diffModel struct {
	e       *Engine
	rng     *rand.Rand
	seq     uint64 // mirror of the engine's own seq counter
	cur     uint64 // mirror of the engine's inherited lane
	laneSeq map[uint64]uint64

	live   []diffRec
	pos    map[int]int // id -> index in live
	handle map[int]Handle
	stale  []Handle
	nextID int
	spawn  int // scheduling budget left for callbacks
	fired  int
	err    error

	// Group wiring: shard is -1 on a bare engine or the global lane.
	g      *Group
	shard  int
	shards []*diffModel
	outbox []diffOut // mailbox sends, merged into the destination at the barrier
}

type diffOut struct {
	dst int
	rec diffRec
}

func newDiffModel(e *Engine, seed int64, idBase, shard int) *diffModel {
	return &diffModel{
		e:       e,
		rng:     rand.New(rand.NewSource(seed)),
		laneSeq: map[uint64]uint64{},
		pos:     map[int]int{},
		handle:  map[int]Handle{},
		nextID:  idBase,
		spawn:   1500,
		shard:   shard,
	}
}

func (m *diffModel) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

func (m *diffModel) add(r diffRec, h Handle) {
	m.pos[r.id] = len(m.live)
	m.live = append(m.live, r)
	if h != (Handle{}) {
		m.handle[r.id] = h
	}
}

// drop removes a live event from the reference; its handle goes stale.
func (m *diffModel) drop(id int) diffRec {
	i := m.pos[id]
	r := m.live[i]
	last := len(m.live) - 1
	m.live[i] = m.live[last]
	m.pos[m.live[i].id] = i
	m.live = m.live[:last]
	delete(m.pos, id)
	if h, ok := m.handle[id]; ok {
		m.stale = append(m.stale, h)
		delete(m.handle, id)
	}
	return r
}

func (m *diffModel) minKey() refKey {
	best := m.live[0].key
	for _, r := range m.live[1:] {
		if r.key.less(best) {
			best = r.key
		}
	}
	return best
}

func diffFire(a, b any) { a.(*diffModel).fire(b.(int)) }

func (m *diffModel) fire(id int) {
	i, ok := m.pos[id]
	if !ok {
		m.fail("event %d fired but is cancelled or unknown", id)
		return
	}
	if want := m.minKey(); m.live[i].key != want {
		m.fail("fired key %+v, reference least key %+v", m.live[i].key, want)
	}
	r := m.drop(id)
	if m.e.Now() != r.key.at {
		m.fail("event %d fired at %v, scheduled for %v", id, m.e.Now(), r.key.at)
	}
	m.fired++
	m.cur = r.ctx
	m.act()
}

// act is a callback's random side effects: schedule on this engine,
// cancel live and stale handles, and (on a shard) hand off to a peer.
func (m *diffModel) act() {
	for n := m.rng.Intn(4); n > 0 && m.spawn > 0; n-- {
		m.spawn--
		m.schedule(m.e.Now() + Time(m.rng.Intn(6)))
	}
	if m.rng.Intn(3) == 0 {
		m.cancelLive()
	}
	if m.rng.Intn(3) == 0 {
		m.cancelStale()
	}
	if m.g != nil && m.spawn > 0 && m.rng.Intn(4) == 0 {
		m.spawn--
		if m.shard >= 0 {
			m.send()
		} else {
			m.scheduleOnShard()
		}
	}
	m.checkPending()
}

// schedule adds one event at t through At, AtCall or AtKeyed.
func (m *diffModel) schedule(t Time) {
	id := m.nextID
	m.nextID++
	var h Handle
	var r diffRec
	switch m.rng.Intn(3) {
	case 0:
		m.seq++
		r = diffRec{id, refKey{t, m.cur, m.seq}, m.cur}
		h = m.e.At(t, func() { m.fire(id) })
	case 1:
		m.seq++
		r = diffRec{id, refKey{t, m.cur, m.seq}, m.cur}
		h = m.e.AtCall(t, diffFire, m, id)
	default:
		lane := diffKeyedLanes[m.rng.Intn(len(diffKeyedLanes))]
		ctx := diffCtxLanes[m.rng.Intn(len(diffCtxLanes))]
		r = diffRec{id, refKey{t, lane, m.laneSeq[lane]}, ctx}
		m.laneSeq[lane]++
		h = m.e.AtKeyed(t, lane, r.key.seq, ctx, diffFire, m, id)
	}
	m.add(r, h)
}

func (m *diffModel) cancelLive() {
	if len(m.live) == 0 {
		return
	}
	id := m.live[m.rng.Intn(len(m.live))].id
	h, ok := m.handle[id]
	if !ok {
		return // a mailbox delivery: the test holds no handle
	}
	h.Cancel()
	if !h.Cancelled() {
		m.fail("handle of event %d live after Cancel", id)
	}
	m.drop(id)
}

// cancelStale cancels a handle whose event fired or was cancelled; its
// slot is usually carrying a newer event by now, which must survive.
func (m *diffModel) cancelStale() {
	if len(m.stale) == 0 {
		return
	}
	h := m.stale[m.rng.Intn(len(m.stale))]
	h.Cancel()
	if !h.Cancelled() || h.At() != 0 {
		m.fail("stale handle came back to life")
	}
}

func (m *diffModel) checkPending() {
	if got := m.e.Pending(); got != len(m.live) {
		m.fail("Pending() = %d, reference holds %d", got, len(m.live))
	}
}

// send hands an event to the other shard through the group mailbox, on
// the source shard's own lane.
func (m *diffModel) send() {
	dst := (m.shard + 1) % len(m.shards)
	if dst == m.shard {
		return
	}
	lane := uint64(diffSendLane + m.shard)
	t := m.e.Now() + diffLookahead + Time(m.rng.Intn(3))
	r := diffRec{m.nextID, refKey{t, lane, m.laneSeq[lane]}, diffCtxLanes[m.rng.Intn(len(diffCtxLanes))]}
	m.nextID++
	m.laneSeq[lane]++
	m.g.Send(m.shard, dst, t, lane, r.key.seq, r.ctx, diffFire, m.shards[dst], r.id)
	m.outbox = append(m.outbox, diffOut{dst, r})
}

// scheduleOnShard runs on the global lane, at a barrier with every shard
// quiesced, and schedules straight onto a shard's queue.
func (m *diffModel) scheduleOnShard() {
	sh := m.shards[m.rng.Intn(len(m.shards))]
	t := sh.e.Now() + Time(m.rng.Intn(6))
	r := diffRec{m.nextID, refKey{t, diffGlobalLane, m.laneSeq[diffGlobalLane]}, diffCtxLanes[m.rng.Intn(len(diffCtxLanes))]}
	m.nextID++
	m.laneSeq[diffGlobalLane]++
	sh.add(r, sh.e.AtKeyed(t, diffGlobalLane, r.key.seq, r.ctx, diffFire, sh, r.id))
}

// outside does what a caller between RunUntil slices does: schedule and
// cancel from outside any callback.
func (m *diffModel) outside() {
	for n := m.rng.Intn(20); n > 0; n-- {
		m.schedule(m.e.Now() + Time(m.rng.Intn(8)))
	}
	for n := m.rng.Intn(10); n > 0; n-- {
		m.cancelLive()
	}
	m.cancelStale()
	m.checkPending()
}

// runDifferential drives models over their engines: a deep initial
// backlog with many equal timestamps, RunUntil slices with outside
// scheduling and cancelling in between, then a full drain.
func runDifferential(t *testing.T, models []*diffModel, runUntil func(Time), run func()) {
	t.Helper()
	for _, m := range models {
		for i := 0; i < 300; i++ {
			m.schedule(Time(m.rng.Intn(60)))
		}
		m.outside()
	}
	for end := Time(10); end <= 80; end += 10 {
		runUntil(end)
		for _, m := range models {
			m.outside()
		}
	}
	run()
	fired := 0
	for i, m := range models {
		if m.err != nil {
			t.Fatalf("engine %d: %v", i, m.err)
		}
		if len(m.live) != 0 || m.e.Pending() != 0 {
			t.Fatalf("engine %d: drained with %d reference and %d queued events left",
				i, len(m.live), m.e.Pending())
		}
		fired += m.fired
	}
	if fired < 1000 {
		t.Fatalf("only %d events fired; the model is too shallow", fired)
	}
}

func TestEngineKeyOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		e := New()
		m := newDiffModel(e, seed, 0, -1)
		runDifferential(t, []*diffModel{m}, e.RunUntil, e.Run)
	}
}

// TestGroupKeyOrderDifferential runs the same check on every engine of a
// group: the global lane and each shard, with mailbox handoffs between
// shards and global-lane events scheduling onto shards at barriers.
func TestGroupKeyOrderDifferential(t *testing.T) {
	for _, k := range []int{1, 2} {
		for seed := int64(1); seed <= 4; seed++ {
			global := New()
			g := NewGroup(global, k, diffLookahead)
			gm := newDiffModel(global, seed, 0, -1)
			gm.g = g
			models := []*diffModel{gm}
			for i := 0; i < k; i++ {
				sm := newDiffModel(g.Shard(i), seed*100+int64(i), (i+1)<<24, i)
				sm.g = g
				gm.shards = append(gm.shards, sm)
				models = append(models, sm)
			}
			for _, sm := range gm.shards {
				sm.shards = gm.shards
			}
			g.OnBarrier(func(Time) {
				for _, sm := range gm.shards {
					for _, o := range sm.outbox {
						gm.shards[o.dst].add(o.rec, Handle{})
					}
					sm.outbox = sm.outbox[:0]
					sm.cur = 0 // runWindow resets the inherited lane
				}
			})
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				runDifferential(t, models, global.RunUntil, global.Run)
			})
		}
	}
}

// BenchmarkEngineQueue is a hold model at a fixed queue depth: each step
// pops the earliest event, whose callback schedules one more at a random
// future time, so the pending count stays at the sub-benchmark's size.
func BenchmarkEngineQueue(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"16", 16}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run(c.name, func(b *testing.B) {
			e := New()
			rng := rand.New(rand.NewSource(1))
			span := int64(2 * c.depth)
			var hold Callback
			hold = func(_, _ any) { e.AfterCall(Time(rng.Int63n(span)), hold, nil, nil) }
			for i := 0; i < c.depth; i++ {
				e.AtCall(Time(rng.Int63n(span)), hold, nil, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
