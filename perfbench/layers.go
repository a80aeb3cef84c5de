package main

import (
	"sort"
)

// layerCounts is the simulated work a traced run counted at the layer
// boundaries. Counts repeat exactly for a seed; the rates built from them
// divide untraced host time, so tracing overhead stays out of them.
type layerCounts struct {
	events, maxPending, txPkts, drops, pfcFrames, flowsStarted, flowsDone float64
}

// setLayers records the counts and the per-unit host costs over runS,
// the event-loop time they were spent in.
func (r *result) setLayers(runS float64, c layerCounts) {
	r.set("sim.events", "count", c.events)
	r.set("sim.max_pending", "count", c.maxPending)
	r.set("sim.ns_per_event", "ns", runS*1e9/c.events)
	r.set("netsim.tx_pkts", "count", c.txPkts)
	r.set("netsim.events_per_pkt", "ratio", c.events/c.txPkts)
	r.set("netsim.ns_per_pkt", "ns", runS*1e9/c.txPkts)
	r.set("netsim.drops", "count", c.drops)
	r.set("netsim.pfc_frames", "count", c.pfcFrames)
	r.set("netsim.flows_started", "count", c.flowsStarted)
	r.set("netsim.flows_done", "count", c.flowsDone)
	r.set("netsim.ns_per_flow", "ns", runS*1e9/c.flowsStarted)
}

// setupLayers maps span names to the set-up metrics they feed.
var setupLayers = []struct{ span, metric string }{
	{"topology.build", "topology.build_s"},
	{"netsim.routes", "netsim.routes_s"},
	{"topology.partition", "topology.partition_s"},
	{"experiments.wire", "experiments.wire_s"},
	{"experiments.flow_start", "experiments.flow_start_s"},
}

func (r *result) setSetupLayers(tr *tracer) {
	for _, l := range setupLayers {
		r.set(l.metric, "s", tr.total(l.span))
	}
}

// setCC records every wrapped hook's call count and mean sampled cost
// per protocol, plus CC calls per transmitted packet.
func (r *result) setCC(cc *ccTracer, txPkts float64) {
	var total uint64
	stats := cc.byProtocol()
	protos := make([]string, 0, len(stats))
	for p := range stats {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	for _, p := range protos {
		st := stats[p]
		for h, name := range hookNames {
			if st.calls[h] == 0 {
				continue
			}
			prefix := "cc." + name + "." + protoKey(p)
			r.setExtra(prefix+".calls", "count", float64(st.calls[h]))
			if st.sampled[h] > 0 {
				r.setExtra(prefix+".ns", "ns", float64(st.sampledNs[h])/float64(st.sampled[h]))
			}
			total += st.calls[h]
		}
	}
	r.setExtra("cc.calls_per_pkt", "ratio", float64(total)/txPkts)
}
