package netsim

import (
	"sort"

	"rocc/internal/sim"
)

// This file is the dataplane's side of the sharded engine (sim.Group):
// node→shard assignment, per-shard packet pools with ownership transfer
// on cross-shard handoff, and the deferred flow-completion machinery
// that keeps flow-registry mutation and user callbacks on the global
// lane.
//
// Lane encoding for the (at, k1, seq) event keys — see sim.entry.k1:
//
//	0                 global/setup lane: events scheduled by global-lane
//	                  code (workload arrivals, monitors, tickers created
//	                  at setup) and their descendants. Sorts first.
//	1<<62 | nodeID    a node's local lane: everything a node does in
//	                  reaction to a packet arrival.
//	2<<62 | portID    a directed link's arrival lane, sequenced by the
//	                  transmitting port's own counter.
//
// All three are derived from topology identity, never from shard
// assignment, so same-timestamp ordering — and therefore the whole run —
// is byte-identical for every shard count.
const (
	laneLocalBase = uint64(1) << 62
	laneArrBase   = uint64(2) << 62
)

func localLane(id NodeID) uint64 { return laneLocalBase | uint64(id) }

// shardState is per-shard deferred work, appended single-writer during a
// window and drained by the coordinator at the barrier.
type shardState struct {
	done   []*Flow     // flows whose last byte arrived this window
	retire []retireReq // reliable flows fully acknowledged this window
}

type retireReq struct {
	f  *Flow
	at sim.Time
}

// Sharded reports whether the network runs on a sharded engine group.
func (n *Network) Sharded() bool { return n.group != nil }

// Group returns the engine group the network was sharded onto, or nil.
func (n *Network) Group() *sim.Group { return n.group }

// EnableSharding partitions the network across the shards of g:
// assign[nodeID] names the shard owning each node. Call it after the
// topology is complete (every Connect done) and before any traffic or
// protocol attachments. g's global lane must be the engine the network
// was built on; every existing scheduling site against n.Engine keeps
// working and runs at window barriers.
//
// The lookahead contract is the caller's (the topology partitioner's)
// responsibility: every link between nodes on different shards must
// have PropDelay >= g.Lookahead().
func (n *Network) EnableSharding(g *sim.Group, assign []int) {
	if g.Global() != n.Engine {
		panic("netsim: sharding group must wrap the network's engine")
	}
	if len(assign) != len(n.nodes) {
		panic("netsim: shard assignment must cover every node")
	}
	if len(n.flows) > 0 || n.nextFlow != 0 {
		panic("netsim: EnableSharding must run before any traffic")
	}
	n.group = g
	k := g.Shards()
	n.pools = make([]packetPool, k)
	for i := range n.pools {
		n.pools[i].disabled = n.pool.disabled
	}
	n.shardSt = make([]shardState, k)
	for id, node := range n.nodes {
		sh := assign[id]
		if sh < 0 || sh >= k {
			panic("netsim: shard assignment out of range")
		}
		eng := g.Shard(sh)
		switch v := node.(type) {
		case *Host:
			v.eng, v.shard = eng, sh
		case *Switch:
			v.eng, v.shard = eng, sh
		}
		for _, p := range node.Ports() {
			p.eng, p.shard = eng, sh
		}
		for _, p := range node.Ports() {
			if p.PropDelay < g.Lookahead() && assign[p.PeerNode.ID()] != sh {
				panic("netsim: cross-shard link faster than group lookahead")
			}
		}
	}
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			p.peerShard = assign[p.PeerNode.ID()]
			p.peerCtx = localLane(p.PeerNode.ID())
		}
	}
	g.OnBarrier(n.drainShardCompletions)
	g.SetTransfer(n.transferOwnership)
}

// nodeShard returns the shard a node lives on (0 when unsharded).
func nodeShard(node Node) int {
	switch v := node.(type) {
	case *Host:
		return v.shard
	case *Switch:
		return v.shard
	}
	return 0
}

// AcquirePacketFor returns a pooled packet owned by node's shard.
// Protocol elements running inside a node's event context (CNP
// generators, receiver hooks) must use this in sharded runs so the
// free-list stays shard-local; unsharded it is identical to
// AcquirePacket.
func (n *Network) AcquirePacketFor(node Node) *Packet {
	if n.group == nil {
		return n.AcquirePacket()
	}
	return n.acquireFrom(int32(nodeShard(node)))
}

// transferOwnership moves a mailbox-handoff packet to the destination
// shard's pool. It runs on the coordinator with every shard quiesced —
// the only moment a packet may change pools.
func (n *Network) transferOwnership(_, b any, dst int) {
	pkt, ok := b.(*Packet)
	if !ok || !pkt.pooled {
		return
	}
	n.movePacket(pkt, dst)
}

func (n *Network) movePacket(pkt *Packet, dst int) {
	if int(pkt.pool) == dst {
		return
	}
	n.pools[pkt.pool].live--
	n.pools[dst].live++
	pkt.pool = int32(dst)
}

// drainShardCompletions is the window-barrier hook: it replays the
// flow completions and retirements each shard deferred, in a
// partition-independent order, on the global lane. Completion callbacks
// (OnFlowDone) may start new flows or stop the engine; registry
// mutation (removeFlowLater) happens here too, so in-window code only
// ever reads the flow map.
func (n *Network) drainShardCompletions(now sim.Time) {
	nd, nr := 0, 0
	for i := range n.shardSt {
		nd += len(n.shardSt[i].done)
		nr += len(n.shardSt[i].retire)
	}
	if nd > 0 {
		n.doneScratch = n.doneScratch[:0]
		for i := range n.shardSt {
			st := &n.shardSt[i]
			n.doneScratch = append(n.doneScratch, st.done...)
			for j := range st.done {
				st.done[j] = nil
			}
			st.done = st.done[:0]
		}
		sort.Slice(n.doneScratch, func(a, b int) bool {
			x, y := n.doneScratch[a], n.doneScratch[b]
			if x.FinishTime != y.FinishTime {
				return x.FinishTime < y.FinishTime
			}
			if x.dstID != y.dstID {
				return x.dstID < y.dstID
			}
			return x.ID < y.ID
		})
		for _, f := range n.doneScratch {
			if n.OnFlowDone != nil {
				n.OnFlowDone(f)
			}
			if !f.Reliable {
				n.removeFlowLater(f)
			}
		}
	}
	if nr > 0 {
		n.retireScratch = n.retireScratch[:0]
		for i := range n.shardSt {
			st := &n.shardSt[i]
			n.retireScratch = append(n.retireScratch, st.retire...)
			for j := range st.retire {
				st.retire[j] = retireReq{}
			}
			st.retire = st.retire[:0]
		}
		sort.Slice(n.retireScratch, func(a, b int) bool {
			x, y := n.retireScratch[a], n.retireScratch[b]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.f.srcID != y.f.srcID {
				return x.f.srcID < y.f.srcID
			}
			return x.f.ID < y.f.ID
		})
		for _, r := range n.retireScratch {
			n.removeFlowLater(r.f)
		}
	}
}

// scheduleArrival puts a serialized packet's arrival on the right heap:
// legacy AfterCall when unsharded; otherwise the keyed form, through the
// cross-shard mailbox when the peer lives elsewhere and a window is
// executing. The (lane, seq) pair comes from the transmitting port, so
// arrival order at equal timestamps is partition-independent.
func (p *Port) scheduleArrival(delay sim.Time, pkt *Packet) {
	g := p.net.group
	if g == nil {
		p.net.Engine.AfterCall(delay, portArrive, p, pkt)
		return
	}
	if delay < 0 {
		delay = 0
	}
	at := p.eng.Now() + delay
	seq := p.linkSeq
	p.linkSeq++
	switch {
	case p.peerShard == p.shard:
		p.eng.AtKeyed(at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
	case g.InWindow():
		g.Send(p.shard, p.peerShard, at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
	default:
		// Barrier/global context: every heap is quiescent, so push
		// directly (and move pool ownership inline, as the mailbox
		// drain would have).
		if pkt.pooled {
			p.net.movePacket(pkt, p.peerShard)
		}
		g.Shard(p.peerShard).AtKeyed(at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
	}
}

// NodeCount returns how many nodes (hosts and switches) the network has —
// the length a shard-assignment slice must cover.
func (n *Network) NodeCount() int { return len(n.nodes) }
