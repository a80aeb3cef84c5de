package netsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// checkRoutes fails the test when the network's tables differ from the
// all-pairs oracle in any (switch, host) entry, choice order included:
// the ECMP hash indexes the choices, so order is observable.
func checkRoutes(t *testing.T, o *netsim.RouteOracle, when string) {
	t.Helper()
	if d := o.Diff(); d != "" {
		t.Fatalf("%s: %s", when, d)
	}
}

// churn kills random switch links, host links and switches, then
// restores them, checking the tables against the oracle after each
// local invalidation and after each reconvergence. The oracle keeps one
// slice per entry, so an in-place edit of a shared next-hop slice shows.
func churn(t *testing.T, net *netsim.Network, o *netsim.RouteOracle, r *rand.Rand, rounds int) {
	t.Helper()
	sws, hosts := net.Switches(), net.Hosts()
	for round := 0; round < rounds; round++ {
		var links []*netsim.Port
		var killed []*netsim.Switch
		for k := 1 + r.Intn(3); k > 0; k-- {
			switch r.Intn(3) {
			case 0:
				s := sws[r.Intn(len(sws))]
				if len(s.Ports()) == 0 {
					continue
				}
				p := s.Port(r.Intn(len(s.Ports())))
				net.FailLink(p)
				o.FailLink(p)
				links = append(links, p)
			case 1:
				p := hosts[r.Intn(len(hosts))].NIC()
				if p == nil {
					continue
				}
				net.FailLink(p)
				o.FailLink(p)
				links = append(links, p)
			case 2:
				s := sws[r.Intn(len(sws))]
				net.FailSwitch(s)
				o.FailSwitch(s)
				killed = append(killed, s)
			}
			checkRoutes(t, o, fmt.Sprintf("round %d, after a kill", round))
		}
		net.ComputeRoutes()
		o.Compute()
		checkRoutes(t, o, fmt.Sprintf("round %d, reconverged over the kills", round))
		for _, p := range links {
			net.RestoreLink(p)
		}
		for _, s := range killed {
			net.RestoreSwitch(s)
		}
		checkRoutes(t, o, fmt.Sprintf("round %d, restored before reconvergence", round))
		net.ComputeRoutes()
		o.Compute()
		checkRoutes(t, o, fmt.Sprintf("round %d, reconverged after restore", round))
	}
}

// TestComputeRoutesMatchesOracleOnShippedTopologies covers every fabric
// the experiments build, from the diamond to the k=16 scale fat-tree.
func TestComputeRoutesMatchesOracleOnShippedTopologies(t *testing.T) {
	g40 := netsim.Gbps(40)
	cases := []struct {
		name   string
		build  func() *netsim.Network
		rounds int
	}{
		{"diamond", netsim.Diamond, 20},
		{"star", func() *netsim.Network { return topology.BuildStar(sim.New(), 1, 8, g40).Net }, 20},
		{"multi-bottleneck", func() *netsim.Network { return topology.BuildMultiBottleneck(sim.New(), 1).Net }, 20},
		{"asymmetric", func() *netsim.Network { return topology.BuildAsymmetric(sim.New(), 1).Net }, 20},
		{"paper-fat-tree", func() *netsim.Network {
			return topology.BuildFatTree(sim.New(), 1, topology.PaperFatTree()).Net
		}, 5},
		{"scale-fat-tree", func() *netsim.Network {
			return topology.BuildFatTree(sim.New(), 1, experiments.ScaleFatTree()).Net
		}, 1},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := c.build()
			o := netsim.NewRouteOracle(net)
			checkRoutes(t, o, "as built")
			churn(t, net, o, rand.New(rand.NewSource(int64(i+1))), c.rounds)
		})
	}
}

// randomFabric wires a seeded random switch graph — a random spanning
// tree plus extra links, parallel links included — with hosts hung off
// random switches (a few left unattached). Switch links and host
// attachments are interleaved so port indices mix both kinds.
func randomFabric(seed int64) *netsim.Network {
	r := rand.New(rand.NewSource(seed))
	net := netsim.New(sim.New(), seed)
	sws := make([]*netsim.Switch, 2+r.Intn(11))
	for i := range sws {
		sws[i] = net.AddSwitch(fmt.Sprintf("s%d", i), netsim.BufferConfig{})
	}
	hosts := make([]*netsim.Host, 1+r.Intn(3*len(sws)))
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("h%d", i))
	}
	var links [][2]netsim.Node
	for i := 1; i < len(sws); i++ {
		links = append(links, [2]netsim.Node{sws[i], sws[r.Intn(i)]})
	}
	for k := r.Intn(2 * len(sws)); k > 0; k-- {
		if a, b := r.Intn(len(sws)), r.Intn(len(sws)); a != b {
			links = append(links, [2]netsim.Node{sws[a], sws[b]})
		}
	}
	for _, h := range hosts {
		if r.Intn(8) != 0 {
			links = append(links, [2]netsim.Node{h, sws[r.Intn(len(sws))]})
		}
	}
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links {
		net.Connect(l[0], l[1], netsim.Gbps(40), 1500)
	}
	net.ComputeRoutes()
	return net
}

// TestComputeRoutesMatchesOracleOnRandomFabrics also takes single link
// ends down (Port.SetLinkDown without the peer), which ComputeRoutes
// must read from the same end the all-pairs search did.
func TestComputeRoutesMatchesOracleOnRandomFabrics(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		net := randomFabric(seed)
		o := netsim.NewRouteOracle(net)
		checkRoutes(t, o, fmt.Sprintf("seed %d as built", seed))
		r := rand.New(rand.NewSource(seed))
		churn(t, net, o, r, 3)

		var ends []*netsim.Port
		for _, s := range net.Switches() {
			for _, p := range s.Ports() {
				if r.Intn(6) == 0 {
					ends = append(ends, p)
				}
			}
		}
		for _, h := range net.Hosts() {
			if p := h.NIC(); p != nil && r.Intn(6) == 0 {
				ends = append(ends, p)
			}
		}
		for _, p := range ends {
			p.SetLinkDown(true)
		}
		net.ComputeRoutes()
		o.Compute()
		checkRoutes(t, o, fmt.Sprintf("seed %d with %d link ends down", seed, len(ends)))
	}
}
