package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"

	"rocc/internal/chaos"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
)

// soakCount is `roccsim soak`'s campaign length in the ROADMAP's
// throughput figure.
const soakCount = 60

// soakOptions is `roccsim soak -seed <seed> -count 60` at its default
// generator settings, on one shard per scenario and one worker per CPU.
func soakOptions(seed int64) chaos.SoakOptions {
	return chaos.SoakOptions{
		Seed:    seed,
		Count:   soakCount,
		Workers: runtime.NumCPU(),
		Gen:     chaos.GenOptions{FaultScale: 1, MixProb: 0.25, ModeProb: 0.25},
		Run:     chaos.RunOptions{Shards: 1},
		Shrink:  false,
	}
}

// verdictDigest fingerprints a campaign's verdicts as JSON, the format
// `roccsim soak` reports them in.
func verdictDigest(vs []chaos.Verdict) (string, error) {
	data, err := json.Marshal(vs)
	if err != nil {
		return "", fmt.Errorf("encoding verdicts: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// generate builds the campaign's scenarios: the soak's set-up, which
// chaos.Soak does inside its workers and does not time.
func generate(o chaos.SoakOptions) {
	for i := 0; i < o.Count; i++ {
		chaos.Generate(o.Seed+int64(i), o.Gen)
	}
}

// protoKey turns a protocol label into a metric-name component
// ("DCQCN+PI" -> "dcqcn-pi").
func protoKey(p string) string {
	return strings.ReplaceAll(strings.ToLower(p), "+", "-")
}

func soakWorkload() benchWorkload {
	describe := func(b *bench, o chaos.SoakOptions) {
		b.res.Manifest.Shards = o.Run.Shards
		b.res.Manifest.Workers = o.Workers
		b.res.Manifest.Params = map[string]any{
			"entry": "chaos.Soak", "count": o.Count, "fault_scale": o.Gen.FaultScale,
			"mix_prob": o.Gen.MixProb, "mode_prob": o.Gen.ModeProb, "shrink": o.Shrink,
		}
	}
	// campaign runs one untraced soak and checks its verdicts.
	campaign := func(b *bench, o chaos.SoakOptions) (sample, string) {
		var rep chaos.Report
		s := timed(b.hw, func() { rep = chaos.Soak(o) })
		b.res.Attempted += rep.Scenarios
		b.res.Failed += rep.Failures
		if rep.Failures > 0 || rep.Scenarios != o.Count {
			b.res.check("verdicts", false, "%d of %d scenarios failed (%d run)", rep.Failures, o.Count, rep.Scenarios)
		}
		d, err := verdictDigest(rep.Verdicts)
		if err != nil {
			b.check("verdict_json", false, "%v", err)
		}
		return s, d
	}
	return benchWorkload{
		name: "soak",
		measure: func(b *bench) {
			o := soakOptions(b.seed)
			describe(b, o)
			setups := probeSetup(func() { generate(o) })
			var ss []sample
			var digests []string
			var perMin []float64
			for b.more(len(ss)) {
				s, d := campaign(b, o)
				ss = append(ss, s)
				digests = append(digests, d)
				perMin = append(perMin, float64(o.Count)/s.wall*60)
			}
			b.res.endToEndFrom(ss, setups)
			b.res.setExtraMedian("scenarios_per_min", "1/min", perMin)
			b.stableDigest("verdicts", digests)
			b.check("verdicts_clean", b.res.Failed == 0, "%d failed verdicts over %d scenarios", b.res.Failed, b.res.Attempted)
		},
		traced: func(b *bench) {
			o := soakOptions(b.seed)
			describe(b, o)
			untraced, want := campaign(b, o)
			b.res.Digests["verdicts"] = want
			// The traced campaign below runs one scenario at a time, so its
			// overhead is measured against an untraced one-worker campaign.
			one := o
			one.Workers = 1
			serial, got1 := campaign(b, one)
			b.check("workers_identity", got1 == want, "1 worker %s, %d workers %s", got1, o.Workers, want)

			// The traced campaign runs the scenarios one at a time through
			// the calls chaos.Soak makes per scenario, so each gets its own
			// span; it therefore measures single-worker cost.
			tr := newTracer(fmt.Sprintf("soak-seed%d", b.seed))
			var verdicts []chaos.Verdict
			var counts layerCounts
			scenarioMs := map[string][]float64{}
			var runMs, genMs []float64
			var prof profShares
			g0 := readGoStats()
			traced := timed(b.hw, func() {
				prof = profile(func() {
					root := tr.begin("chaos.soak", 0)
					for i := 0; i < o.Count; i++ {
						scn := tr.begin("chaos.scenario", root)
						var sc chaos.Scenario
						genMs = append(genMs, 1e3*tr.do("chaos.generate", scn, func() { sc = chaos.Generate(o.Seed+int64(i), o.Gen) }))
						reg := telemetry.New()
						ro := o.Run
						ro.Telemetry = &experiments.RunTelemetry{Registry: reg}
						var res chaos.Result
						var err error
						ms := 1e3 * tr.do("chaos.run", scn, func() { res, err = chaos.Run(sc, ro) })
						runMs = append(runMs, ms)
						v := verdictOf(i, sc, res, err)
						verdicts = append(verdicts, v)
						key := protoKey(sc.Protocol)
						if len(v.Protocols) > 1 {
							key = "mixed"
						}
						scenarioMs[key] = append(scenarioMs[key], ms)
						counts.events += gauge(reg, "sim.events_fired")
						if mp := gauge(reg, "sim.events_max_pending"); mp > counts.maxPending {
							counts.maxPending = mp
						}
						counts.txPkts += counter(reg, "netsim.tx_packets")
						counts.drops += float64(res.Drops)
						counts.pfcFrames += float64(res.PFCFrames)
						counts.flowsStarted += float64(res.FlowsStarted)
						counts.flowsDone += float64(res.FlowsDone)
						replicaSetup(tr, scn, sc)
						tr.end(scn)
					}
					tr.end(root)
				})
			})
			goS := goDelta(g0, readGoStats())
			b.res.Spans = tr.spans
			failed := 0
			for _, v := range verdicts {
				if v.Failed() {
					failed++
				}
			}
			b.res.Attempted += len(verdicts)
			b.res.Failed += failed
			got, err := verdictDigest(verdicts)
			if err != nil {
				b.check("verdict_json", false, "%v", err)
			}
			b.res.Digests["traced"] = got
			b.check("traced_digest", got == want, "traced %s, untraced chaos.Soak %s", got, want)

			// Layer rates divide by the untraced one-worker campaign, the
			// untraced time that covers exactly the counted work.
			runS := tr.total("chaos.run")
			b.res.setSetupLayers(tr)
			b.res.setLayers(serial.wall, counts)
			b.res.setGo(goS)
			b.res.setProf(prof)
			b.res.set("trace.overhead_frac", "ratio", (tr.total("chaos.generate")+runS-serial.wall)/serial.wall)
			b.res.setExtraMedian("chaos.generate_ms", "ms", genMs)
			b.res.setExtraMedian("chaos.run_ms_p50", "ms", runMs)
			tail, pct := tailPercentile(runMs)
			b.res.setExtra("chaos.run_ms_tail", "ms", tail)
			b.res.setExtra("chaos.run_ms_tail_pct", "percent", pct)
			b.res.setExtra("chaos.verdicts_failed", "count", float64(failed))
			b.res.setExtra("harness.efficiency", "ratio", serial.wall/(float64(o.Workers)*untraced.wall))
			for key, xs := range scenarioMs {
				b.res.setExtraMedian("chaos.scenario_ms."+key, "ms", xs)
			}
			b.res.Manifest.PhasesS["untraced_wall"] = untraced.wall
			b.res.Manifest.PhasesS["untraced_serial_wall"] = serial.wall
			b.res.Manifest.PhasesS["traced_wall"] = traced.wall
		},
	}
}

// verdictOf builds scenario i's verdict exactly as chaos.Soak does.
func verdictOf(i int, sc chaos.Scenario, res chaos.Result, err error) chaos.Verdict {
	v := chaos.Verdict{
		Index:    i,
		Seed:     sc.Seed,
		Protocol: sc.Protocol,
		Topology: sc.Topology.Kind,
		Mode:     sc.Mode,
		Flows:    len(sc.Flows),
		Faults:   len(sc.Faults),
		Rogues:   sc.RogueCount(),
		Defended: sc.Defended,
	}
	if protos := sc.Protocols(); len(protos) > 1 {
		for _, p := range protos {
			v.Protocols = append(v.Protocols, string(p))
		}
	}
	if err != nil {
		v.Err = err.Error()
	}
	v.Result = res
	return v
}

// replicaSetup times the set-up layers on a copy of the scenario's
// fabric, built with the public calls chaos.Run makes before its event
// loop. chaos.Run does all of this internally, so the soak's set-up
// layers can only be timed on a replica; it is discarded unrun.
func replicaSetup(tr *tracer, parent int, sc chaos.Scenario) {
	engine := sim.New()
	var net *netsim.Network
	var ft *topology.FatTree
	t := sc.Topology
	tr.do("topology.build", parent, func() {
		switch t.Kind {
		case chaos.TopoStar:
			gbps := t.Gbps
			if gbps == 0 {
				gbps = 40
			}
			net = topology.BuildStar(engine, sc.Seed, t.N, netsim.Gbps(gbps)).Net
		case chaos.TopoMultiBottleneck:
			net = topology.BuildMultiBottleneck(engine, sc.Seed).Net
		default:
			gbps := t.Gbps
			if gbps == 0 {
				gbps = 40
			}
			ft = topology.BuildFatTree(engine, sc.Seed, topology.FatTreeConfig{
				Cores: t.Cores, Edges: t.Edges, HostsPerEdge: t.HostsPerEdge, LinksPerPair: 1,
				HostRate: netsim.Gbps(gbps), CoreRate: netsim.Gbps(float64(t.HostsPerEdge) * gbps / 2 / float64(t.Cores)),
			})
			net = ft.Net
		}
	})
	tr.do("netsim.routes", parent, net.ComputeRoutes)
	tr.do("topology.partition", parent, func() {
		if ft != nil {
			topology.PartitionFatTree(ft, 1).Apply(net)
		} else {
			topology.PartitionAuto(net, 1).Apply(net)
		}
	})
	protos := sc.Protocols()
	mix := experiments.NewMix(net, 0)
	tr.do("experiments.wire", parent, func() {
		for _, p := range protos {
			mix.Activate(p)
		}
		if sc.OperatingMode().CCEnabled() {
			mix.EnableAllSwitchPorts()
			for _, h := range net.Hosts() {
				mix.AttachReceivers(h)
			}
		}
	})
	hosts := net.Hosts()
	tr.do("experiments.flow_start", parent, func() {
		for i, fs := range sc.Flows {
			mix.StartCustomFlow(sc.FlowProtocol(i), hosts[fs.Src], hosts[fs.Dst], fs.SizeBytes, 0, fs.Reliable)
		}
	})
}

// gauge reads one gauge from a registry snapshot (0 when absent).
func gauge(reg *telemetry.Registry, name string) float64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that is. With ten or
// fewer samples there is none; it returns the maximum and 100.
func tailPercentile(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11 // s[i] has exactly ten samples above it
	return s[i], 100 * float64(i+1) / float64(n)
}
