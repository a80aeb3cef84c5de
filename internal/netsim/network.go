package netsim

import (
	"fmt"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// Node is a network element: a Host or a Switch.
type Node interface {
	ID() NodeID
	Ports() []*Port
	Arrive(pkt *Packet, inPort int)
}

// Network owns the topology, the flow registry and global configuration.
type Network struct {
	Engine *sim.Engine
	Rand   *sim.Rand

	nodes    []Node
	hosts    []*Host
	switches []*Switch

	flows    map[FlowID]*Flow
	nextFlow FlowID

	// OnFlowDone is invoked when a flow's last byte reaches its receiver.
	OnFlowDone func(*Flow)

	// OnFlowRemoved is invoked when a completed flow is finally dropped
	// from the registry, after the post-completion grace period for late
	// control packets. Composers keyed by FlowID (the experiments Mix)
	// use it to retire their per-flow routing state.
	OnFlowRemoved func(*Flow)

	// DefaultRPDelay is applied to hosts created after it is set (15 µs
	// per §6). It can be overridden per host.
	DefaultRPDelay sim.Time

	// RetxBytesTotal accumulates go-back-N retransmitted bytes across all
	// flows, including completed ones (App. A.2 reporting).
	RetxBytesTotal int64

	// PauseStormSpan is the completed-pause duration at or above which a
	// pause interval counts as a pause storm (netsim.pfc.pause_storm).
	// Healthy PFC pauses in the paper's fabrics last microseconds; a
	// millisecond-scale pause means an upstream queue is wedged.
	PauseStormSpan sim.Time

	// INTHopCap, when positive, presizes the INT/EchoINT slices of every
	// pool-fresh packet so per-hop telemetry stamping never grows the
	// backing array. Set it to the topology diameter (the experiment stack
	// uses 8 for HPCC); zero leaves the slices nil until first use.
	INTHopCap int

	// ReconvergeDelay is how long after a FailLink/FailSwitch/Restore
	// event the routing tables are recomputed (the control plane's
	// detection + reconvergence time). Zero selects
	// DefaultReconvergeDelay. Packets in the window that reach a switch
	// with no surviving ECMP entry blackhole deterministically.
	ReconvergeDelay sim.Time

	// MaxHops bounds how many switches a packet may traverse before it is
	// dropped as looping (a TTL). Transient routing states can only loop
	// while tables are inconsistent; the cap turns that into a
	// deterministic terminal drop. Zero selects DefaultMaxHops.
	MaxHops int

	// routesDynamic flips on at the first topology event. Before that, a
	// missing route is a wiring bug and panics; after, it is a blackhole
	// window and packets are dropped with a terminal pool release.
	routesDynamic bool

	// reconverges counts route recomputations; stalePauseDrops counts PFC
	// frames discarded because they predate their link's re-establishment;
	// watchdogPauseIgnores counts PFC frames discarded on ports whose
	// lossless class a storm watchdog disabled.
	reconverges          uint64
	stalePauseDrops      uint64
	watchdogPauseIgnores uint64

	// pool recycles Packet structs; see pool.go for the lifecycle contract.
	// In sharded runs (EnableSharding) pools replaces it with one
	// shard-local free list per shard, and shardSt carries each shard's
	// deferred flow completions.
	pool    packetPool
	group   *sim.Group
	pools   []packetPool
	shardSt []shardState

	// Barrier-drain scratch (shard.go), reused so steady-state barriers
	// do not allocate.
	doneScratch   []*Flow
	retireScratch []retireReq

	// portSeq numbers ports in creation order; the sharded engine keys
	// every directed link's arrival lane by it.
	portSeq uint64

	// longestPause is the longest completed PFC pause interval seen so
	// far; LongestPauseSpan extends it with in-progress pauses so a true
	// deadlock (a pause that never completes) is still visible.
	longestPause sim.Time
	pauseStorms  uint64

	// Telemetry attachments (see SetTelemetry). All nil when disabled;
	// the instruments are nil-safe so hot paths never branch on these.
	reg *telemetry.Registry
	rec *telemetry.Recorder
	tm  netMetrics
}

// New creates an empty network on the given engine.
func New(engine *sim.Engine, seed int64) *Network {
	return &Network{
		Engine:         engine,
		Rand:           sim.NewRand(seed),
		flows:          make(map[FlowID]*Flow),
		DefaultRPDelay: 15 * sim.Microsecond,
		PauseStormSpan: sim.Millisecond,
	}
}

// AddHost creates a host.
func (n *Network) AddHost(name string) *Host {
	h := &Host{net: n, id: NodeID(len(n.nodes)), Name: name, RPDelay: n.DefaultRPDelay, eng: n.Engine}
	n.nodes = append(n.nodes, h)
	n.hosts = append(n.hosts, h)
	return h
}

// AddSwitch creates a switch with the given buffer configuration.
func (n *Network) AddSwitch(name string, buf BufferConfig) *Switch {
	s := &Switch{
		net:    n,
		id:     NodeID(len(n.nodes)),
		Name:   name,
		Buffer: buf,
		eng:    n.Engine,
	}
	n.nodes = append(n.nodes, s)
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Flow returns a registered flow, or nil after it completed.
func (n *Network) Flow(id FlowID) *Flow { return n.flows[id] }

// Connect links two nodes with a full-duplex link of the given rate and
// propagation delay, returning the two port ends (a's, then b's).
func (n *Network) Connect(a, b Node, rate Rate, delay sim.Time) (*Port, *Port) {
	pa := &Port{net: n, owner: a, LinkRate: rate, PropDelay: delay, eng: n.Engine, arrLane: laneArrBase | n.portSeq}
	pb := &Port{net: n, owner: b, LinkRate: rate, PropDelay: delay, eng: n.Engine, arrLane: laneArrBase | (n.portSeq + 1)}
	n.portSeq += 2
	n.attach(a, pa)
	n.attach(b, pb)
	pa.PeerNode, pa.PeerPort = b, pb.Index
	pb.PeerNode, pb.PeerPort = a, pa.Index
	return pa, pb
}

func (n *Network) attach(node Node, p *Port) {
	switch v := node.(type) {
	case *Host:
		if v.port != nil {
			panic("netsim: host " + v.Name + " already has a NIC port")
		}
		p.Index = 0
		p.Refill = v.refill
		v.port = p
	case *Switch:
		v.addPort(p)
	default:
		panic(fmt.Sprintf("netsim: unknown node type %T", node))
	}
}

// ComputeRoutes builds shortest-path ECMP routing tables for every host
// destination, over the live links only (downed links and failed
// switches carry no routes). Call after the topology is complete; the
// reconvergence machinery (topofail.go) calls it again after every
// FailLink/FailSwitch/Restore window.
//
// A host has one NIC port and never forwards, so it is a leaf: for a
// host h behind attachment switch E, every other switch has the same
// next hops toward h as toward E, and E itself forwards out of the port
// whose peer is h. So one breadth-first search over the switches per
// attachment switch yields the table entries of all its hosts, and those
// hosts share one next-hop slice per switch. Shared slices are never
// edited in place (see invalidatePort). Each slice lists its ports in
// index order, which the ECMP hash in egressFor depends on.
func (n *Network) ComputeRoutes() {
	for _, s := range n.switches {
		s.routes = make([][]int, len(n.nodes))
	}
	dist := make([]int32, len(n.nodes)) // hops to the attachment switch; -1: unreached or a host
	queue := make([]*Switch, 0, len(n.switches))
	var hosts []*Host // hosts behind the attachment switch, over links up at the host's end
	for _, e := range n.switches {
		if e.failed {
			continue
		}
		hosts = hosts[:0]
		for _, p := range e.ports {
			if h, ok := p.PeerNode.(*Host); ok && !h.port.linkDown {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[e.id] = 0
		queue = append(queue[:0], e)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, p := range cur.ports {
				s, ok := p.PeerNode.(*Switch)
				if p.linkDown || !ok || s.failed || dist[s.id] >= 0 {
					continue
				}
				dist[s.id] = dist[cur.id] + 1
				queue = append(queue, s)
			}
		}
		for _, s := range queue[1:] {
			var next []int
			for i, p := range s.ports {
				if !p.linkDown && dist[p.PeerNode.ID()] == dist[s.id]-1 {
					next = append(next, i)
				}
			}
			if len(next) > 0 {
				for _, h := range hosts {
					s.routes[h.id] = next
				}
			}
		}
		for _, h := range hosts {
			if i := h.port.PeerPort; !e.ports[i].linkDown {
				e.routes[h.id] = []int{i}
			}
		}
	}
}

// StartFlow begins a flow from src to dst with the given configuration.
func (n *Network) StartFlow(src, dst *Host, cfg FlowConfig) *Flow {
	if src == dst {
		panic("netsim: flow source equals destination")
	}
	n.nextFlow++
	cc := cfg.CC
	if cc == nil {
		cc = NoCC{}
	}
	rto := cfg.RTO
	if rto == 0 {
		rto = sim.Millisecond
	}
	ackEvery := cfg.AckEvery
	if cfg.Reliable && ackEvery == 0 {
		ackEvery = 1
	}
	f := &Flow{
		ID:          n.nextFlow,
		net:         n,
		src:         src,
		dst:         dst,
		srcID:       src.id,
		dstID:       dst.id,
		Size:        cfg.Size,
		MaxRate:     cfg.MaxRate,
		CC:          cc,
		Reliable:    cfg.Reliable,
		AckEvery:    ackEvery,
		RTO:         rto,
		ExtraHeader: cfg.ExtraHeader,
		StartTime:   n.Engine.Now(),
	}
	n.flows[f.ID] = f
	src.addFlow(f)
	return f
}

// removeFlowLater tears down a completed flow's controller timers and
// schedules its removal from the registry after a grace period, so ACKs
// and CNPs still in flight (up to a few RTTs behind the last data byte)
// reach the flow instead of being dropped.
func (n *Network) removeFlowLater(f *Flow) {
	if s, ok := f.CC.(interface{ Stop() }); ok {
		s.Stop()
	}
	id := f.ID
	n.Engine.After(removeGrace, func() {
		if n.flows[id] == f {
			delete(n.flows, id)
			if n.OnFlowRemoved != nil {
				n.OnFlowRemoved(f)
			}
		}
	})
}

// removeGrace is how long a completed flow stays addressable for late
// control packets.
const removeGrace = 200 * sim.Microsecond

// ActiveFlowCount returns the number of registered (incomplete) flows.
func (n *Network) ActiveFlowCount() int { return len(n.flows) }

// TotalPFCFrames sums Xoff pause frames across all switches.
func (n *Network) TotalPFCFrames() int {
	total := 0
	for _, s := range n.switches {
		total += s.PauseFrames
	}
	return total
}

// LongestPauseSpan returns the longest PFC pause interval observed so
// far on any port, including pauses still in progress — so a pause-wait
// deadlock, whose pauses never complete, is as visible as a long pause
// that did. This is the signal the chaos deadlock monitor and the
// netsim.pfc.longest_pause_span_ns gauge share.
func (n *Network) LongestPauseSpan() sim.Time {
	longest := n.longestPause
	now := n.Engine.Now()
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			if p.paused {
				if span := now - p.pausedAt; span > longest {
					longest = span
				}
			}
		}
	}
	return longest
}

// PauseStorms returns how many completed pause intervals reached
// PauseStormSpan.
func (n *Network) PauseStorms() uint64 { return n.pauseStorms }

// TotalDrops sums tail drops across all switches.
func (n *Network) TotalDrops() int {
	total := 0
	for _, s := range n.switches {
		total += s.Drops
	}
	return total
}

// BlackholeDrops sums packets dropped at switches that had no surviving
// route for the destination (topology-failure windows).
func (n *Network) BlackholeDrops() uint64 {
	total := uint64(0)
	for _, s := range n.switches {
		total += s.BlackholeDrops
	}
	return total
}

// LoopDrops sums packets dropped for exceeding the hop cap.
func (n *Network) LoopDrops() uint64 {
	total := uint64(0)
	for _, s := range n.switches {
		total += s.LoopDrops
	}
	return total
}

// LinkDownDrops sums packets lost serializing into downed links, across
// every switch port and host NIC.
func (n *Network) LinkDownDrops() uint64 {
	total := uint64(0)
	for _, s := range n.switches {
		for _, p := range s.ports {
			total += p.LinkDownDrops
		}
	}
	for _, h := range n.hosts {
		total += h.port.LinkDownDrops
	}
	return total
}

// PolicedDrops sums data packets denied by switch Police hooks.
func (n *Network) PolicedDrops() int {
	total := 0
	for _, s := range n.switches {
		total += s.PolicedDrops
	}
	return total
}

// WatchdogDrops sums data packets discarded on storm-disabled egress
// ports (including stuck-queue flushes at watchdog trips).
func (n *Network) WatchdogDrops() int {
	total := 0
	for _, s := range n.switches {
		total += s.WatchdogDrops
	}
	return total
}

// WatchdogPauseIgnores returns how many PFC frames were discarded on
// ports whose lossless class a storm watchdog had disabled.
func (n *Network) WatchdogPauseIgnores() uint64 { return n.watchdogPauseIgnores }

// FlowPathCPs enumerates the congestion points — (switch, egress port)
// pairs — a flow's data packets traverse from src to dst under the
// current routing tables, following the same ECMP hash the dataplane
// uses. The RoCC reaction point's forged-feedback defense treats this
// set as the witness list: a CNP claiming a congestion point off the
// flow's path was never earned by the flow's own packets. Returns nil
// when the path is broken (blackhole window) or the ids are not hosts.
func (n *Network) FlowPathCPs(flow FlowID, src, dst NodeID) []CPID {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) {
		return nil
	}
	h, ok := n.nodes[src].(*Host)
	if !ok || h.port == nil {
		return nil
	}
	probe := Packet{Flow: flow, Dst: dst}
	node := h.port.PeerNode
	var out []CPID
	for hops := 0; hops <= n.maxHops(); hops++ {
		sw, ok := node.(*Switch)
		if !ok {
			return out // reached a host (the destination)
		}
		p := sw.egressFor(&probe)
		if p == nil {
			return out
		}
		out = append(out, CPID{Node: sw.id, Port: p.Index})
		node = p.PeerNode
	}
	return out
}

// Reconverges returns how many route recomputations have completed.
func (n *Network) Reconverges() uint64 { return n.reconverges }

// StalePauseDrops returns how many PFC frames were discarded because
// they predate the receiving link's last re-establishment.
func (n *Network) StalePauseDrops() uint64 { return n.stalePauseDrops }
