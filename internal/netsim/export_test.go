package netsim

import (
	"fmt"
	"slices"
)

// RouteOracle is the reference implementation ComputeRoutes is checked
// against: one map-based breadth-first search per host over every node,
// with each (switch, host) entry in its own slice, invalidated in place.
// It shares no state with the network's tables, so an edit that leaks
// through a shared next-hop slice shows up as a difference.
type RouteOracle struct {
	net    *Network
	routes map[*Switch]map[NodeID][]int
}

// NewRouteOracle computes reference tables for n's current topology.
func NewRouteOracle(n *Network) *RouteOracle {
	o := &RouteOracle{net: n}
	o.Compute()
	return o
}

// Compute rebuilds the reference tables over the live links, as
// reconvergence does.
func (o *RouteOracle) Compute() {
	o.routes = make(map[*Switch]map[NodeID][]int)
	for _, s := range o.net.switches {
		o.routes[s] = make(map[NodeID][]int)
	}
	for _, dst := range o.net.hosts {
		dist := o.bfs(dst)
		for _, s := range o.net.switches {
			if s.failed {
				continue
			}
			ds, ok := dist[s.id]
			if !ok {
				continue
			}
			var next []int
			for i, p := range s.ports {
				if p.linkDown {
					continue
				}
				if dp, ok := dist[p.PeerNode.ID()]; ok && dp == ds-1 {
					next = append(next, i)
				}
			}
			if len(next) > 0 {
				o.routes[s][dst.id] = next
			}
		}
	}
}

// bfs returns hop distances from every node to dst over live links.
func (o *RouteOracle) bfs(dst Node) map[NodeID]int {
	dist := map[NodeID]int{dst.ID(): 0}
	queue := []Node{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range cur.Ports() {
			peer := p.PeerNode
			if peer == nil || p.linkDown {
				continue
			}
			if s, ok := peer.(*Switch); ok && s.failed {
				continue
			}
			if _, seen := dist[peer.ID()]; !seen {
				dist[peer.ID()] = dist[cur.ID()] + 1
				queue = append(queue, peer)
			}
		}
	}
	return dist
}

// FailLink applies the local invalidation Network.FailLink performs.
func (o *RouteOracle) FailLink(p *Port) {
	o.invalidate(p)
	o.invalidate(peerPort(p))
}

// FailSwitch applies the table clearing and peer invalidation
// Network.FailSwitch performs.
func (o *RouteOracle) FailSwitch(s *Switch) {
	o.routes[s] = make(map[NodeID][]int)
	for _, p := range s.ports {
		o.invalidate(peerPort(p))
	}
}

func (o *RouteOracle) invalidate(p *Port) {
	s, ok := p.owner.(*Switch)
	if !ok {
		return
	}
	for dst, choices := range o.routes[s] {
		kept := choices[:0]
		for _, i := range choices {
			if i != p.Index {
				kept = append(kept, i)
			}
		}
		if len(kept) == 0 {
			delete(o.routes[s], dst)
		} else {
			o.routes[s][dst] = kept
		}
	}
}

// Diff compares the network's tables with the reference for every
// (switch, host) pair, choice order included, and describes the first
// difference; "" means identical.
func (o *RouteOracle) Diff() string {
	for _, s := range o.net.switches {
		for _, h := range o.net.hosts {
			got, want := s.route(h.id), o.routes[s][h.id]
			if !slices.Equal(got, want) {
				return fmt.Sprintf("switch %s toward host %s: choices %v, want %v", s.Name, h.Name, got, want)
			}
		}
	}
	return ""
}

// Diamond returns the diamond fabric of routing_test.go.
func Diamond() *Network {
	_, n, _, _, _ := diamond()
	return n
}
