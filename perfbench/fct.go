package main

import (
	"fmt"
	"hash/fnv"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// fctCell names one fig14 cell: the workload CDF it draws flow sizes from.
type fctCell struct {
	name string
	cdf  func() *workload.CDF
}

var (
	webSearch = fctCell{"fct-websearch", workload.WebSearch}
	hadoop    = fctCell{"fct-hadoop", workload.FBHadoop}
)

// fctConfig is the cell `roccsim fig14` runs for RoCC at 70% load, with
// every field RunFCT would default spelled out so the benchmark's own
// assembly of the cell sees the same values.
func fctConfig(cell fctCell, seed int64) experiments.FCTConfig {
	dur := 30 * sim.Millisecond
	return experiments.FCTConfig{
		Protocol: experiments.ProtoRoCC,
		Workload: cell.cdf(),
		Load:     0.7,
		Mode:     experiments.Lossless,
		FatTree:  topology.PaperFatTree(),
		Duration: dur,
		Warmup:   dur / 6,
		Seed:     seed,
		Shards:   1,
	}
}

// fctDigest fingerprints every simulated output of a cell: the FCT bins,
// rate statistics, queue and buffer figures, drops, PFC frames,
// retransmitted and delivered bytes, and finished flows. %v prints
// floats in their shortest exact form, so equal digests mean equal
// values.
func fctDigest(r experiments.FCTResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v",
		r.Bins, r.RateMean, r.RateStd, r.Core, r.IngressEdge, r.EgressEdge,
		r.MaxBufferKB, r.AvgBufferKB, r.Drops, r.RetxBytes, r.TotalBytes, r.FlowsDone)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fctRig is one fig14 cell assembled from the same public calls RunFCT
// makes, in the same order, so wrappers and spans can be placed between
// them. Its output must equal RunFCT's; the traced run checks that.
type fctRig struct {
	cfg     experiments.FCTConfig
	engine  *sim.Engine
	ft      *topology.FatTree
	group   *sim.Group
	stack   *experiments.Stack
	rec     *stats.FCTRecorder
	gens    []*workload.Poisson
	coreQ   *stats.Series
	bufQ    *stats.Series
	upQ     *stats.Series
	downQ   *stats.Series
	started int
	done    int
}

// buildFCT sets a cell up to the point where RunFCT starts the event
// loop. With tr set it records a span per layer call; with cc set it
// wraps every flow controller and port element; with reg set it attaches
// the telemetry registry.
func buildFCT(cfg experiments.FCTConfig, tr *tracer, parent int, cc *ccTracer, reg *telemetry.Registry) *fctRig {
	span := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.do(name, parent, fn)
	}
	r := &fctRig{cfg: cfg, engine: sim.New(), rec: &stats.FCTRecorder{}}
	span("topology.build", func() { r.ft = topology.BuildFatTree(r.engine, cfg.Seed, cfg.FatTree) })
	net := r.ft.Net
	if reg != nil {
		net.SetTelemetry(reg, nil)
	}
	if tr != nil {
		// Route computation is part of BuildFatTree; time a second,
		// identical pass on the built fabric to isolate its cost.
		span("netsim.routes", net.ComputeRoutes)
	}
	span("topology.partition", func() { r.group = topology.PartitionFatTree(r.ft, cfg.Shards).Apply(net) })
	span("experiments.wire", func() {
		r.stack = experiments.NewStack(net, cfg.Protocol, 16*sim.Microsecond)
		r.stack.EnableAllSwitchPorts()
		for _, hosts := range r.ft.Hosts {
			for _, h := range hosts {
				r.stack.AttachReceiver(h)
			}
		}
		if cc != nil {
			cc.wrapPorts(net, string(cfg.Protocol))
		}
	})

	warmupSec := cfg.Warmup.Seconds()
	net.OnFlowDone = func(f *netsim.Flow) {
		r.done++
		if f.StartTime.Seconds() < warmupSec {
			return
		}
		r.rec.Record(int(f.Size), f.FCT().Seconds())
	}
	span("experiments.flow_start", func() {
		lastEdge := len(r.ft.Hosts) - 1
		sinks := r.ft.Hosts[lastEdge]
		rand := net.Rand.Split()
		uplink := float64(r.ft.CoreRate) * float64(cfg.FatTree.Cores*cfg.FatTree.LinksPerPair)
		senders := (len(r.ft.Hosts) - 1) * cfg.FatTree.HostsPerEdge
		lambda := workload.ArrivalRate(cfg.Workload, uplink/float64(senders), cfg.Load)
		var wrap func(netsim.FlowCC) netsim.FlowCC
		if cc != nil {
			wrap = cc.wrapFlow(string(cfg.Protocol))
		}
		for e := 0; e < lastEdge; e++ {
			for _, src := range r.ft.Hosts[e] {
				src := src
				r.gens = append(r.gens, workload.NewPoisson(r.engine, rand.Split(), cfg.Workload, lambda,
					func(size int) {
						dst := sinks[rand.Intn(len(sinks))]
						r.started++
						r.stack.StartWrappedFlow(cfg.Protocol, src, dst, int64(size), 0, false, wrap)
					}))
			}
		}
	})
	sampler := experiments.NewSampler(r.engine, 200*sim.Microsecond)
	r.coreQ = sampler.Value("core", func() float64 { return meanQueueKB(r.ft.CorePorts) })
	r.bufQ = sampler.Value("buffer", func() float64 {
		max := 0
		for _, sw := range net.Switches() {
			if b := sw.BufferUsed(); b > max {
				max = b
			}
		}
		return float64(max) / float64(netsim.KB)
	})
	r.upQ = sampler.Value("ingress", func() float64 { return meanQueueKB(r.ft.EdgeUp) })
	r.downQ = sampler.Value("egress", func() float64 { return meanQueueKB(r.ft.EdgeDown) })
	return r
}

// run drives the event loop and assembles the result as RunFCT does.
func (r *fctRig) run() experiments.FCTResult {
	cfg, ft := r.cfg, r.ft
	r.engine.RunUntil(cfg.Duration)
	for _, g := range r.gens {
		g.Stop()
	}
	warmupSec := cfg.Warmup.Seconds()
	res := experiments.FCTResult{
		Config:    cfg,
		FCT:       r.rec,
		Bins:      r.rec.BinBySize(cfg.Workload.Bins()),
		FlowsDone: len(r.rec.Samples),
		Drops:     ft.Net.TotalDrops(),
	}
	res.RateMean, res.RateStd = r.rec.RateStats()
	res.Core = experiments.TierStats{AvgQueueKB: r.coreQ.MeanAfter(warmupSec), PFCFrames: sumPFC(ft.Cores)}
	res.IngressEdge = experiments.TierStats{AvgQueueKB: r.upQ.MeanAfter(warmupSec)}
	res.EgressEdge = experiments.TierStats{AvgQueueKB: r.downQ.MeanAfter(warmupSec)}
	for i, sw := range ft.Edges {
		if i == len(ft.Edges)-1 {
			res.EgressEdge.PFCFrames += sw.PauseFrames
		} else {
			res.IngressEdge.PFCFrames += sw.PauseFrames
		}
	}
	maxBuf := 0
	for _, sw := range ft.Net.Switches() {
		if sw.MaxBufferUsed > maxBuf {
			maxBuf = sw.MaxBufferUsed
		}
	}
	res.MaxBufferKB = float64(maxBuf) / float64(netsim.KB)
	res.AvgBufferKB = r.bufQ.MeanAfter(warmupSec)
	for _, hosts := range ft.Hosts {
		for _, h := range hosts {
			res.TotalBytes += int64(h.RxDataBytes)
		}
	}
	res.RetxBytes = ft.Net.RetxBytesTotal
	return res
}

// meanQueueKB and sumPFC restate RunFCT's unexported tier statistics.
func meanQueueKB(ports []*netsim.Port) float64 {
	total, busy := 0, 0
	for _, p := range ports {
		if q := p.DataQueueBytes(); q > 0 {
			total += q
			busy++
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(total) / float64(busy) / float64(netsim.KB)
}

func sumPFC(switches []*netsim.Switch) int {
	n := 0
	for _, s := range switches {
		n += s.PauseFrames
	}
	return n
}

func fctWorkload(cell fctCell) benchWorkload {
	return benchWorkload{
		name: cell.name,
		measure: func(b *bench) {
			cfg := fctConfig(cell, b.seed)
			b.describeFCT(cfg)
			// RunFCT does not report its set-up time, so the probes time
			// the benchmark's assembly of the same calls, which the traced
			// run holds equal to RunFCT.
			setups := probeSetup(func() { buildFCT(cfg, nil, 0, nil, nil) })
			var ss []sample
			var digests []string
			var delivered []float64
			for b.more(len(ss)) {
				var r experiments.FCTResult
				s := timed(b.hw, func() { r = experiments.RunFCT(cfg) })
				ss = append(ss, s)
				digests = append(digests, fctDigest(r))
				delivered = append(delivered, float64(r.TotalBytes)/1e6/s.wall)
				b.res.Attempted++
				if r.FlowsDone == 0 || r.TotalBytes == 0 {
					b.res.Failed++
					b.res.check("flows_finished", false, "op %d finished %d flows, delivered %d bytes", len(ss), r.FlowsDone, r.TotalBytes)
				}
			}
			b.res.endToEndFrom(ss, setups)
			b.res.setExtraMedian("delivered_mb_per_s", "MB/s", delivered)
			b.stableDigest("output", digests)
		},
		traced: func(b *bench) {
			cfg := fctConfig(cell, b.seed)
			b.describeFCT(cfg)
			var base experiments.FCTResult
			untraced := timed(b.hw, func() { base = experiments.RunFCT(cfg) })
			b.res.Attempted++

			tr := newTracer(fmt.Sprintf("%s-seed%d", cell.name, b.seed))
			cc := &ccTracer{}
			reg := telemetry.New()
			var rig *fctRig
			var out experiments.FCTResult
			var prof profShares
			g0 := readGoStats()
			traced := timed(b.hw, func() {
				prof = profile(func() {
					root := tr.begin("fct.cell", 0)
					setup := tr.begin("setup", root)
					rig = buildFCT(cfg, tr, setup, cc, reg)
					tr.end(setup)
					tr.do("sim.run", root, func() { out = rig.run() })
					tr.end(root)
				})
			})
			goS := goDelta(g0, readGoStats())
			b.res.Attempted++
			b.res.Spans = tr.spans

			want, got := fctDigest(base), fctDigest(out)
			b.res.Digests["output"] = want
			b.res.Digests["traced"] = got
			b.check("traced_digest", got == want, "traced %s, untraced RunFCT %s", got, want)

			setupS := tr.total("setup") - tr.total("netsim.routes")
			runS := untraced.wall - setupS
			net := rig.ft.Net
			b.res.setSetupLayers(tr)
			b.res.setLayers(runS, layerCounts{
				events:       float64(rig.group.Fired()),
				maxPending:   float64(rig.group.MaxPending()),
				txPkts:       counter(reg, "netsim.tx_packets"),
				drops:        float64(net.TotalDrops()),
				pfcFrames:    float64(net.TotalPFCFrames()),
				flowsStarted: float64(rig.started),
				flowsDone:    float64(rig.done),
			})
			b.res.setGo(goS)
			b.res.setProf(prof)
			// The second route computation is extra work, not overhead.
			extra := tr.total("netsim.routes")
			b.res.set("trace.overhead_frac", "ratio", (traced.wall-extra-untraced.wall)/untraced.wall)
			b.res.setExtra("sim.event_slots", "count", float64(rig.group.EventSlots()))
			b.res.setExtra("netsim.pkts", "count", float64(net.PacketsAcquired()))
			b.res.setExtra("shard.k", "count", float64(rig.group.Shards()))
			b.res.setCC(cc, counter(reg, "netsim.tx_packets"))
			b.res.Manifest.PhasesS["untraced_wall"] = untraced.wall
			b.res.Manifest.PhasesS["traced_wall"] = traced.wall
		},
	}
}

func (b *bench) describeFCT(cfg experiments.FCTConfig) {
	b.res.Manifest.Shards = cfg.Shards
	b.res.Manifest.Workers = 1
	b.res.Manifest.Params = map[string]any{
		"entry":    "experiments.RunFCT",
		"protocol": cfg.Protocol, "workload": cfg.Workload.Name(), "load": cfg.Load,
		"fat_tree": cfg.FatTree, "duration_ns": int64(cfg.Duration), "warmup_ns": int64(cfg.Warmup),
		"mode": cfg.Mode.String(),
	}
}

// stableDigest records a digest and checks every repetition produced it.
func (b *bench) stableDigest(name string, digests []string) {
	b.res.Digests[name] = digests[0]
	same := 0
	for _, d := range digests {
		if d == digests[0] {
			same++
		}
	}
	b.check(name+"_stable", same == len(digests), "%d of %d repetitions gave %s", same, len(digests), digests[0])
}

// check records a check; a failed one also counts a failed operation.
func (b *bench) check(name string, ok bool, detail string, args ...any) {
	b.res.check(name, ok, detail, args...)
	if !ok {
		b.res.Failed++
	}
}

// counter reads one counter from a registry snapshot (0 when absent).
func counter(reg *telemetry.Registry, name string) float64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
