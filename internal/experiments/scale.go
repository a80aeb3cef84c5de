package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// ScaleFatTree is the acceptance-scale fabric of the sharded engine:
// a k=16 two-level fat-tree — 8 cores, 16 edges, 64 hosts per edge =
// 1024 hosts — at the paper's 2:1 oversubscription (64×40G hosts over
// 8×2×80G uplinks per edge).
func ScaleFatTree() topology.FatTreeConfig {
	return topology.FatTreeConfig{
		Cores:        8,
		Edges:        16,
		HostsPerEdge: 64,
		LinksPerPair: 2,
		HostRate:     netsim.Gbps(40),
		CoreRate:     netsim.Gbps(80),
	}
}

// ScaleBenchConfig parameterizes one cell of the engine-scaling bench:
// the ScaleFatTree fabric saturated with persistent random-pair flows,
// run for a fixed slice of virtual time at one shard count.
type ScaleBenchConfig struct {
	Shards   int // >= 1: sharded engine group (clamped to pods); 0: legacy single heap
	Seed     int64
	Protocol Protocol
	FatTree  topology.FatTreeConfig
	Flows    int      // concurrent persistent flows (default 100,000)
	Duration sim.Time // virtual time driven (default 1 ms)
}

func (c *ScaleBenchConfig) fill() {
	if c.Protocol == "" {
		c.Protocol = ProtoRoCC
	}
	if c.FatTree.Cores == 0 {
		c.FatTree = ScaleFatTree()
	}
	if c.Flows == 0 {
		c.Flows = 100_000
	}
	if c.Duration == 0 {
		c.Duration = sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ScaleBenchResult is one BENCH_10.json row: throughput of the event
// engine at one shard count, plus a digest of the end state for the
// cross-shard-count byte-identity check.
type ScaleBenchResult struct {
	Shards       int     `json:"shards"`
	Hosts        int     `json:"hosts"`
	Flows        int     `json:"flows"`
	VirtualMS    float64 `json:"virtual_ms"`
	Events       uint64  `json:"events"`
	WallSec      float64 `json:"wall_sec"`
	EventsPerSec float64 `json:"events_per_sec"`

	// SetupSec is the wall time from BuildFatTree (routes included) to
	// the last StartFlow; WallSec and EventsPerSec cover the event loop
	// only.
	SetupSec float64 `json:"setup_sec"`

	// Digest fingerprints the run's observable end state (per-host
	// delivered bytes, drops, events fired). Fixed-seed runs must report
	// the same digest at every Shards >= 1 — the determinism contract,
	// checked here over the full 1024-host fabric.
	Digest string `json:"digest"`
}

// RunScaleBench runs one scaling cell and measures the wall time of its
// set-up (fabric, routes, partition, protocol wiring, flow starts) and,
// separately, of its event loop, from which it derives event throughput.
// Teardown is not timed.
func RunScaleBench(cfg ScaleBenchConfig) ScaleBenchResult {
	cfg.fill()
	setupStart := time.Now()
	engine := sim.New()
	ft := topology.BuildFatTree(engine, cfg.Seed, cfg.FatTree)
	var g *sim.Group
	if cfg.Shards > 0 {
		// Shard before protocol attachment so switch-side elements land on
		// their node's shard engine.
		g = topology.PartitionFatTree(ft, cfg.Shards).Apply(ft.Net)
	}

	stack := NewStack(ft.Net, cfg.Protocol, 16*sim.Microsecond)
	stack.EnableAllSwitchPorts()
	var hosts []*netsim.Host
	for _, hs := range ft.Hosts {
		for _, h := range hs {
			stack.AttachReceiver(h)
			hosts = append(hosts, h)
		}
	}

	// Persistent flows between seeded random distinct hosts: the flow
	// population is constant for the whole run (the "concurrent flows"
	// the bench is sized by), and the pair sequence depends only on the
	// seed — never on the shard count.
	rand := ft.Net.Rand.Split()
	for i := 0; i < cfg.Flows; i++ {
		src := hosts[rand.Intn(len(hosts))]
		dst := hosts[rand.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rand.Intn(len(hosts))]
		}
		stack.StartFlow(src, dst, -1, 0)
	}
	setup := time.Since(setupStart).Seconds()

	start := time.Now()
	engine.RunUntil(cfg.Duration)
	wall := time.Since(start).Seconds()

	fired := engine.Fired()
	if g != nil {
		fired = g.Fired()
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, host := range hosts {
		put(uint64(host.RxDataBytes))
	}
	put(uint64(ft.Net.TotalDrops()))
	put(fired)

	return ScaleBenchResult{
		Shards:       cfg.Shards,
		Hosts:        len(hosts),
		Flows:        cfg.Flows,
		VirtualMS:    cfg.Duration.Seconds() * 1e3,
		Events:       fired,
		WallSec:      wall,
		EventsPerSec: float64(fired) / wall,
		SetupSec:     setup,
		Digest:       fmt.Sprintf("%016x", h.Sum64()),
	}
}
