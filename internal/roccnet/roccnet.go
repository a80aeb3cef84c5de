// Package roccnet binds the pure RoCC algorithms in internal/core to the
// packet-level simulator in internal/netsim: the congestion point attaches
// to switch egress ports (fair-rate timer, flow table, CNP generation) and
// the reaction point implements netsim.FlowCC (rate limiting, fast
// recovery).
package roccnet

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/flowtable"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// CPOptions configures one congestion point (an egress port).
type CPOptions struct {
	// Core holds the Alg. 1 parameters. Zero value selects defaults for
	// the port's link bandwidth via core.CPConfigForGbps.
	Core core.CPConfig

	// T is the fair-rate update interval (40 µs in §6).
	T sim.Time

	// Table selects the flow-table implementation (§3.4). Nil uses the
	// paper's default, the queue-occupancy table.
	Table flowtable.Table

	// HostComputed enables the §3.6 mode: CNPs carry raw queue
	// observations and hosts replicate the fair-rate computation.
	HostComputed bool

	// CNPClass is the traffic class CNPs travel in. The paper prioritizes
	// them (ClassCtrl); the ablation benches demote them to ClassData.
	CNPClass netsim.Class

	// MinSignalBytes suppresses feedback while the egress queue is below
	// this occupancy: an (almost) empty queue has no congestion to
	// signal, and §3.4 sends feedback only to flows contributing to
	// queue buildup. Without this, a CP recovering from an MD floor
	// keeps re-trapping transiting flows at its stale-low rate. Zero
	// defaults to two full packets; negative disables the floor.
	MinSignalBytes int
}

// CP is a RoCC congestion point attached to one switch egress port.
type CP struct {
	net      *netsim.Network
	sw       *netsim.Switch
	port     *netsim.Port
	core     *core.CP
	table    flowtable.Table
	opts     CPOptions
	tick     *sim.Ticker
	hostQold int // previous observation in ΔQ units (host-computed mode)

	// CNPsSent counts feedback messages generated.
	CNPsSent uint64

	// Telemetry (nil-safe; resolved from the network at Attach).
	rec    *telemetry.Recorder
	tmCNPs *telemetry.Counter
	tmFair *telemetry.Histogram
}

// Attach installs a RoCC congestion point on the given egress port of sw
// and starts its fair-rate timer.
func Attach(net *netsim.Network, sw *netsim.Switch, port *netsim.Port, opts CPOptions) *CP {
	if opts.Core.DeltaFMbps == 0 {
		opts.Core = core.CPConfigForGbps(port.LinkRate.Gbps())
	}
	if opts.T == 0 {
		opts.T = 40 * sim.Microsecond
	}
	if opts.Table == nil {
		opts.Table = flowtable.NewQueueTable()
	}
	if opts.MinSignalBytes == 0 {
		opts.MinSignalBytes = 2 * (netsim.MTUPayload + netsim.HeaderBytes)
	}
	cp := &CP{
		net:   net,
		sw:    sw,
		port:  port,
		core:  core.NewCP(opts.Core),
		table: opts.Table,
		opts:  opts,
	}
	port.CC = cp
	reg := net.TelemetryRegistry()
	cp.rec = net.Recorder()
	cp.tmCNPs = reg.Counter("rocc.cp.cnps_sent")
	cp.tmFair = reg.Histogram("rocc.cp.fair_rate_mbps")
	if reg != nil {
		// Per-CP fair-rate gauge, evaluated lazily at snapshot time.
		name := fmt.Sprintf("rocc.cp.n%dp%d.fair_rate_mbps", sw.ID(), port.Index)
		reg.GaugeFunc(name, cp.FairRateMbps)
	}
	// The fair-rate timer runs on the switch's engine so sharded runs
	// keep every CP local to its shard.
	cp.tick = port.Engine().NewTicker(opts.T, cp.update)
	return cp
}

// Stop cancels the fair-rate timer.
func (cp *CP) Stop() { cp.tick.Stop() }

// Core exposes the underlying Alg. 1 state for instrumentation.
func (cp *CP) Core() *core.CP { return cp.core }

// FairRateMbps returns the current fair rate in Mb/s.
func (cp *CP) FairRateMbps() float64 { return cp.core.FairRateMbps() }

// ID returns the congestion-point identifier carried in CNPs.
func (cp *CP) ID() netsim.CPID {
	return netsim.CPID{Node: cp.sw.ID(), Port: cp.port.Index}
}

// OnEnqueue implements netsim.PortCC.
func (cp *CP) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnEnqueue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

// OnDequeue implements netsim.PortCC.
func (cp *CP) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnDequeue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

// update runs once per T: compute the fair rate from the egress queue and
// send a CNP to every flow-table recipient (§3.2-§3.4).
func (cp *CP) update() {
	now := cp.port.Engine().Now()
	qcur := cp.port.DataQueueBytes()
	var rateUnits, qoldUnits int
	if cp.opts.HostComputed {
		qoldUnits = cp.hostQold
		cp.hostQold = qcur / cp.opts.Core.DeltaQBytes
	} else {
		rateUnits = cp.core.Update(qcur)
		cp.tmFair.Observe(int64(cp.core.FairRateMbps()))
		cp.rec.Record(telemetry.Event{
			At:    int64(now),
			Kind:  telemetry.KindCounter,
			Cat:   "rocc",
			Name:  "fair_rate_mbps",
			Node:  int64(cp.sw.ID()),
			Tid:   int64(cp.port.Index),
			Value: cp.core.FairRateMbps(),
		})
	}
	if !cp.opts.HostComputed && qcur < cp.opts.MinSignalBytes {
		// No congestion to signal (§3.4). In host-computed mode CNPs
		// keep flowing: the queue observation itself is the signal, and
		// a near-empty observation raises the replica's rate rather
		// than trapping the flow at a stale value.
		return
	}
	recipients := cp.table.Flows(now, nil)
	if len(recipients) == 0 {
		return
	}
	cpid := cp.ID()
	for _, fid := range recipients {
		f := cp.net.Flow(netsim.FlowID(fid))
		if f == nil {
			continue
		}
		cnp := cp.net.AcquirePacketFor(cp.sw)
		cnp.Flow = f.ID
		cnp.Src = cp.sw.ID()
		cnp.Dst = f.Src().ID()
		cnp.Kind = netsim.KindCNP
		cnp.Cls = cp.opts.CNPClass
		cnp.Size = netsim.CNPBytes
		cnp.SendTS = now
		info := cnp.EnsureCNP()
		info.CP = cpid
		info.RateUnits = rateUnits
		if cp.opts.HostComputed {
			info.HostComputed = true
			info.QCurUnits = qcur / cp.opts.Core.DeltaQBytes
			info.QOldUnits = qoldUnits
		}
		cp.sw.Inject(cnp)
		cp.CNPsSent++
		cp.tmCNPs.Inc()
	}
}
