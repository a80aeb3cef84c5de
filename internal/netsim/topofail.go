package netsim

import (
	"fmt"
	"slices"
	"sort"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// Topology failure and recovery. A FailLink or FailSwitch event models a
// hard fabric failure: the affected links go down at both ends, the
// port-owning switches invalidate their ECMP entries over those links
// immediately (link-layer detection is local and fast), and a global
// route recomputation is scheduled after ReconvergeDelay (the control
// plane's reconvergence time). Between the two, traffic falls into one
// of three deterministic sinks:
//
//   - surviving equal-cost entries at the detecting switch (instant
//     local repair, the common case in multipath fabrics),
//   - the downed link itself, for packets already queued behind it
//     (LinkDownDrops at transmit time), or
//   - a blackhole drop, when a switch is left with no entry at all for
//     the destination (single-path destinations, killed switches).
//
// Restore is symmetric: the links come back up, but routes only re-adopt
// them at the next reconvergence — restored capacity returns after the
// delay, exactly like a real fabric. Every reconvergence notifies the
// flow controllers that implement RouteAware (see cc.go), so protocols
// whose state encodes the old path (HPCC's INT baseline, TIMELY's RTT
// baseline, RoCC's pinned congestion point) re-baseline instead of
// steering on stale measurements.

// DefaultReconvergeDelay is the failure-detection plus route-recompute
// latency applied when Network.ReconvergeDelay is zero. 250 µs sits
// between optical-layer detection (~µs) and BGP-style reconvergence
// (~ms+) and keeps the blackhole window meaningful at millisecond
// simulation scales.
const DefaultReconvergeDelay = 250 * sim.Microsecond

// DefaultMaxHops bounds packet forwarding when Network.MaxHops is zero.
// The deepest shipped topology is 4 hops; 64 tolerates any plausible
// extension while turning a transient routing loop into a bounded drop.
const DefaultMaxHops = 64

func (n *Network) reconvergeDelay() sim.Time {
	if n.ReconvergeDelay > 0 {
		return n.ReconvergeDelay
	}
	return DefaultReconvergeDelay
}

func (n *Network) maxHops() int {
	if n.MaxHops > 0 {
		return n.MaxHops
	}
	return DefaultMaxHops
}

// peerPort returns the port at the far end of p's link.
func peerPort(p *Port) *Port {
	return p.PeerNode.Ports()[p.PeerPort]
}

// FailLink hard-fails the link attached to port p (either end names the
// link): both ends go down, the port-owning switches drop their ECMP
// entries over the link at once, and a route recomputation is scheduled
// after ReconvergeDelay. Failing an already-down link only re-schedules
// the reconvergence.
func (n *Network) FailLink(p *Port) {
	peer := peerPort(p)
	n.routesDynamic = true
	p.SetLinkDown(true)
	peer.SetLinkDown(true)
	n.invalidatePort(p)
	n.invalidatePort(peer)
	n.recordTopoEvent("fail_link", p.owner.ID())
	n.scheduleReconverge()
}

// RestoreLink brings a failed link back up. The link carries traffic
// again immediately for routes that still reference it, but invalidated
// entries only return at the scheduled reconvergence.
func (n *Network) RestoreLink(p *Port) {
	peer := peerPort(p)
	n.routesDynamic = true
	p.SetLinkDown(false)
	peer.SetLinkDown(false)
	n.recordTopoEvent("restore_link", p.owner.ID())
	n.scheduleReconverge()
}

// FailSwitch hard-fails a whole switch: every attached link goes down,
// the peers invalidate their entries toward it, and its own forwarding
// table is cleared (the control plane died with it). Packets already
// buffered inside keep serializing into the dead links and are released
// there; packets still in flight toward it blackhole on arrival.
func (n *Network) FailSwitch(s *Switch) {
	n.routesDynamic = true
	s.failed = true
	s.routes = nil
	for _, p := range s.ports {
		peer := peerPort(p)
		p.SetLinkDown(true)
		peer.SetLinkDown(true)
		n.invalidatePort(peer)
	}
	n.recordTopoEvent("fail_switch", s.id)
	n.scheduleReconverge()
}

// RestoreSwitch brings a failed switch back: links up, forwarding
// resumes at the next reconvergence (its table stays empty until then,
// so early arrivals blackhole rather than loop).
func (n *Network) RestoreSwitch(s *Switch) {
	n.routesDynamic = true
	s.failed = false
	for _, p := range s.ports {
		p.SetLinkDown(false)
		peerPort(p).SetLinkDown(false)
	}
	n.recordTopoEvent("restore_switch", s.id)
	n.scheduleReconverge()
}

// invalidatePort removes a downed port from every ECMP entry of the
// switch that owns it; entries left with no choices are cleared, and
// packets for those destinations blackhole until reconvergence finds an
// alternate path (or the restore brings this one back). ComputeRoutes
// shares one choices slice among many destinations, so a changed entry
// gets a fresh slice rather than an in-place edit.
func (n *Network) invalidatePort(p *Port) {
	s, ok := p.owner.(*Switch)
	if !ok {
		return
	}
	for dst, choices := range s.routes {
		if !slices.Contains(choices, p.Index) {
			continue
		}
		var kept []int
		for _, i := range choices {
			if i != p.Index {
				kept = append(kept, i)
			}
		}
		s.routes[dst] = kept
	}
}

// scheduleReconverge arms one route recomputation per topology event.
// Each event waits its own full delay; an earlier event's recomputation
// firing in between simply sees (and adapts to) the newer state too, so
// the delay is the minimum time to the first adaptation, not a barrier.
func (n *Network) scheduleReconverge() {
	eventAt := n.Engine.Now()
	n.Engine.After(n.reconvergeDelay(), func() {
		n.reconverge(eventAt)
	})
}

// reconverge recomputes the routing tables over the live topology and
// notifies RouteAware flow controllers that their path may have changed.
func (n *Network) reconverge(eventAt sim.Time) {
	n.ComputeRoutes()
	n.reconverges++
	n.tm.reconverges.Inc()
	now := n.Engine.Now()
	n.tm.reconvergeLatency.Observe(int64(now - eventAt))
	n.rec.Record(telemetry.Event{
		At:    int64(now),
		Kind:  telemetry.KindInstant,
		Cat:   "route",
		Name:  "reconverge",
		Value: float64(now - eventAt),
	})
	n.notifyReroute(now)
}

// notifyReroute delivers OnReroute to every registered flow whose
// controller opts in, in FlowID order so the callback sequence is
// deterministic regardless of map layout.
func (n *Network) notifyReroute(now sim.Time) {
	ids := make([]FlowID, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if ra, ok := n.flows[id].CC.(RouteAware); ok {
			ra.OnReroute(now)
		}
	}
}

// RoutesComplete checks post-recovery reachability: every non-failed
// switch holds at least one live (link-up) ECMP entry for every host.
// On a connected topology with all failures restored and reconverged
// this must hold — a missing or dead entry is a permanent blackhole.
// The failure detail names the first gap found.
func (n *Network) RoutesComplete() (string, bool) {
	for _, s := range n.switches {
		if s.failed {
			return fmt.Sprintf("switch %s still failed", s.Name), false
		}
		for _, h := range n.hosts {
			choices := s.route(h.id)
			if len(choices) == 0 {
				return fmt.Sprintf("switch %s has no route to host %s", s.Name, h.Name), false
			}
			live := false
			for _, i := range choices {
				if !s.ports[i].linkDown {
					live = true
					break
				}
			}
			if !live {
				return fmt.Sprintf("switch %s routes to host %s only over downed links", s.Name, h.Name), false
			}
		}
	}
	return "", true
}

// recordTopoEvent files a fail/restore instant into the flight recorder.
func (n *Network) recordTopoEvent(name string, node NodeID) {
	n.rec.Record(telemetry.Event{
		At:   int64(n.Engine.Now()),
		Kind: telemetry.KindInstant,
		Cat:  "route",
		Name: name,
		Node: int64(node),
	})
}

// recordLoopDrop files one hop-cap drop (mirrors recordDrop).
func (n *Network) recordLoopDrop(s *Switch, pkt *Packet) {
	n.tm.loopDrops.Inc()
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "route",
		Name:  "loop_drop",
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}

// recordBlackhole files one no-route drop (mirrors recordDrop).
func (n *Network) recordBlackhole(s *Switch, pkt *Packet) {
	n.tm.blackholeDrops.Inc()
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "route",
		Name:  "blackhole",
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}
