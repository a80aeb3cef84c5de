package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
)

// k16Config is the ROADMAP's k=16 scale run: 1024 hosts, 20k persistent
// flows, 250 µs of virtual time, at the given shard count.
func k16Config(seed int64, shards int) experiments.ScaleBenchConfig {
	return experiments.ScaleBenchConfig{
		Shards:   shards,
		Seed:     seed,
		Protocol: experiments.ProtoRoCC,
		FatTree:  experiments.ScaleFatTree(),
		Flows:    20_000,
		Duration: 250 * sim.Microsecond,
	}
}

// k16Shards is one shard per CPU, so shards never outnumber the CPUs.
func k16Shards() int { return runtime.NumCPU() }

// k16Rig is the k=16 run assembled from the same public calls
// RunScaleBench makes, so spans and wrappers can sit between them.
type k16Rig struct {
	cfg    experiments.ScaleBenchConfig
	engine *sim.Engine
	ft     *topology.FatTree
	group  *sim.Group
	hosts  []*netsim.Host
}

// buildK16 sets the run up to the point where RunScaleBench starts the
// event loop. With tr set it records a span per layer call and times a
// second route computation; with cc set it wraps every flow controller
// and port element; with reg set it attaches the telemetry registry.
func buildK16(cfg experiments.ScaleBenchConfig, tr *tracer, parent int, cc *ccTracer, reg *telemetry.Registry) *k16Rig {
	span := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.do(name, parent, fn)
	}
	r := &k16Rig{cfg: cfg, engine: sim.New()}
	span("topology.build", func() { r.ft = topology.BuildFatTree(r.engine, cfg.Seed, cfg.FatTree) })
	net := r.ft.Net
	if reg != nil {
		net.SetTelemetry(reg, nil)
	}
	if tr != nil {
		span("netsim.routes", net.ComputeRoutes)
	}
	span("topology.partition", func() { r.group = topology.PartitionFatTree(r.ft, cfg.Shards).Apply(net) })
	var stack *experiments.Stack
	span("experiments.wire", func() {
		stack = experiments.NewStack(net, cfg.Protocol, 16*sim.Microsecond)
		stack.EnableAllSwitchPorts()
		for _, hs := range r.ft.Hosts {
			for _, h := range hs {
				stack.AttachReceiver(h)
				r.hosts = append(r.hosts, h)
			}
		}
		if cc != nil {
			cc.wrapPorts(net, string(cfg.Protocol))
		}
	})
	span("experiments.flow_start", func() {
		rand := net.Rand.Split()
		var wrap func(netsim.FlowCC) netsim.FlowCC
		if cc != nil {
			wrap = cc.wrapFlow(string(cfg.Protocol))
		}
		for i := 0; i < cfg.Flows; i++ {
			src := r.hosts[rand.Intn(len(r.hosts))]
			dst := r.hosts[rand.Intn(len(r.hosts))]
			for dst == src {
				dst = r.hosts[rand.Intn(len(r.hosts))]
			}
			stack.StartWrappedFlow(cfg.Protocol, src, dst, -1, 0, false, wrap)
		}
	})
	return r
}

// digest restates RunScaleBench's end-state fingerprint: per-host
// delivered bytes, drops, events fired.
func (r *k16Rig) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, host := range r.hosts {
		put(uint64(host.RxDataBytes))
	}
	put(uint64(r.ft.Net.TotalDrops()))
	put(r.group.Fired())
	return fmt.Sprintf("%016x", h.Sum64())
}

func k16Workload() benchWorkload {
	describe := func(b *bench, cfg experiments.ScaleBenchConfig) {
		b.res.Manifest.Shards = cfg.Shards
		b.res.Manifest.Workers = 1
		b.res.Manifest.Params = map[string]any{
			"entry": "experiments.RunScaleBench", "protocol": cfg.Protocol, "fat_tree": cfg.FatTree,
			"flows": cfg.Flows, "duration_ns": int64(cfg.Duration),
		}
	}
	// serial runs the same cell on one shard for the shard-count
	// identity check.
	serial := func(b *bench, want string) experiments.ScaleBenchResult {
		r := experiments.RunScaleBench(k16Config(b.seed, 1))
		b.res.Attempted++
		b.res.Digests["k1"] = r.Digest
		b.check("shard_identity", r.Digest == want, "K=1 digest %s, K=%d digest %s", r.Digest, k16Shards(), want)
		return r
	}
	return benchWorkload{
		name: "k16-sharded",
		measure: func(b *bench) {
			cfg := k16Config(b.seed, k16Shards())
			describe(b, cfg)
			// RunScaleBench reports its event-loop wall time, not its
			// set-up CPU time; the probes time the benchmark's assembly of
			// the same calls, which the traced run holds equal to it.
			setups := probeSetup(func() { buildK16(cfg, nil, 0, nil, nil) })
			var ss []sample
			var digests []string
			var runs []float64
			for b.more(len(ss)) {
				var r experiments.ScaleBenchResult
				s := timed(b.hw, func() { r = experiments.RunScaleBench(cfg) })
				ss = append(ss, s)
				runs = append(runs, r.WallSec)
				digests = append(digests, r.Digest)
				b.res.Attempted++
			}
			b.res.endToEndFrom(ss, setups)
			b.res.setExtraMedian("run_s", "s", runs)
			b.stableDigest("output", digests)
			serial(b, digests[0])
		},
		traced: func(b *bench) {
			cfg := k16Config(b.seed, k16Shards())
			describe(b, cfg)
			var base experiments.ScaleBenchResult
			untraced := timed(b.hw, func() { base = experiments.RunScaleBench(cfg) })
			b.res.Attempted++
			b.res.Digests["output"] = base.Digest
			k1 := serial(b, base.Digest)

			tr := newTracer(fmt.Sprintf("k16-sharded-seed%d", b.seed))
			cc := &ccTracer{}
			reg := telemetry.New()
			var rig *k16Rig
			var prof profShares
			var cpuRun float64
			g0 := readGoStats()
			traced := timed(b.hw, func() {
				prof = profile(func() {
					root := tr.begin("k16.run", 0)
					setup := tr.begin("setup", root)
					rig = buildK16(cfg, tr, setup, cc, reg)
					tr.end(setup)
					c0 := cpuSeconds()
					tr.do("sim.run", root, func() { rig.engine.RunUntil(cfg.Duration) })
					cpuRun = cpuSeconds() - c0
					tr.end(root)
				})
			})
			goS := goDelta(g0, readGoStats())
			b.res.Attempted++
			b.res.Spans = tr.spans
			got := rig.digest()
			b.res.Digests["traced"] = got
			b.check("traced_digest", got == base.Digest, "traced %s, untraced RunScaleBench %s", got, base.Digest)

			net := rig.ft.Net
			b.res.setSetupLayers(tr)
			b.res.setLayers(base.WallSec, layerCounts{
				events:       float64(rig.group.Fired()),
				maxPending:   float64(rig.group.MaxPending()),
				txPkts:       counter(reg, "netsim.tx_packets"),
				drops:        float64(net.TotalDrops()),
				pfcFrames:    float64(net.TotalPFCFrames()),
				flowsStarted: float64(cfg.Flows),
				flowsDone:    0,
			})
			b.res.setGo(goS)
			b.res.setProf(prof)
			// The second route computation is extra work, not overhead.
			extra := tr.total("netsim.routes")
			b.res.set("trace.overhead_frac", "ratio", (traced.wall-extra-untraced.wall)/untraced.wall)
			k := float64(rig.group.Shards())
			b.res.setExtra("shard.k", "count", k)
			b.res.setExtra("shard.run_s_k1", "s", k1.WallSec)
			b.res.setExtra("shard.speedup", "ratio", k1.WallSec/base.WallSec)
			b.res.setExtra("shard.efficiency", "ratio", k1.WallSec/base.WallSec/k)
			b.res.setExtra("shard.cpu_per_wall", "ratio", cpuRun/tr.total("sim.run"))
			b.res.setExtra("sim.event_slots", "count", float64(rig.group.EventSlots()))
			b.res.setExtra("netsim.pkts", "count", float64(net.PacketsAcquired()))
			b.res.setCC(cc, counter(reg, "netsim.tx_packets"))
			b.res.Manifest.PhasesS["untraced_wall"] = untraced.wall
			b.res.Manifest.PhasesS["untraced_run"] = base.WallSec
			b.res.Manifest.PhasesS["traced_wall"] = traced.wall
		},
	}
}
