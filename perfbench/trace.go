package main

import (
	"time"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// span is one timed call the benchmark made into a layer. Spans of one
// traced run share RunID; Parent is the ID of the enclosing span (0 for
// a root).
type span struct {
	RunID   string `json:"run_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the result file carries them out when
// the run ends.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{RunID: t.runID, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	return float64(s.EndNs-s.StartNs) / 1e9
}

// do runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) do(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// CC hooks the wrappers count. The order fixes the metric names.
const (
	hookAllow = iota
	hookOnSent
	hookOnAck
	hookOnCNP
	hookPortEnqueue
	hookPortDequeue
	numHooks
)

var hookNames = [numHooks]string{"allow", "on_sent", "on_ack", "on_cnp", "port_enqueue", "port_dequeue"}

// sampleEvery times one call in this many per hook: timing every call
// would cost more than most hooks do.
const sampleEvery = 64

// hookStats counts every call of each hook and times a sample of them.
// One value belongs to one wrapper, and a wrapper's calls all run on its
// flow's or port's shard, so no two goroutines touch the same value.
type hookStats struct {
	// phase offsets this wrapper's sampling, so that wrappers seeing
	// only a few calls each still get one call in sampleEvery timed.
	phase     uint64
	calls     [numHooks]uint64
	sampled   [numHooks]uint64
	sampledNs [numHooks]int64
}

func (h *hookStats) add(o *hookStats) {
	for i := range h.calls {
		h.calls[i] += o.calls[i]
		h.sampled[i] += o.sampled[i]
		h.sampledNs[i] += o.sampledNs[i]
	}
}

// tick counts one call of hook and reports whether to time it.
func (h *hookStats) tick(hook int) bool {
	h.calls[hook]++
	return (h.calls[hook]+h.phase)%sampleEvery == 0
}

func (h *hookStats) record(hook int, start time.Time) {
	h.sampled[hook]++
	h.sampledNs[hook] += time.Since(start).Nanoseconds()
}

// ccTracer hands out CC wrappers and sums their counts per protocol.
type ccTracer struct {
	flows []*flowCC
	ports []*portCC
}

// wrapFlow returns a StartWrappedFlow interposer that counts proto's
// FlowCC calls.
func (c *ccTracer) wrapFlow(proto string) func(netsim.FlowCC) netsim.FlowCC {
	return func(inner netsim.FlowCC) netsim.FlowCC {
		w := &flowCC{inner: inner, proto: proto}
		w.st.phase = uint64(len(c.flows))
		c.flows = append(c.flows, w)
		return w
	}
}

// wrapPorts interposes a counting PortCC on every attached port of the
// fabric's switches. Call it after the protocol is wired.
func (c *ccTracer) wrapPorts(net *netsim.Network, proto string) {
	for _, sw := range net.Switches() {
		for _, p := range sw.Ports() {
			if p.CC != nil {
				w := &portCC{inner: p.CC, proto: proto}
				w.st.phase = uint64(len(c.ports))
				c.ports = append(c.ports, w)
				p.CC = w
			}
		}
	}
}

// byProtocol sums the wrappers' counts per protocol.
func (c *ccTracer) byProtocol() map[string]*hookStats {
	out := map[string]*hookStats{}
	get := func(p string) *hookStats {
		if out[p] == nil {
			out[p] = &hookStats{}
		}
		return out[p]
	}
	for _, w := range c.flows {
		get(w.proto).add(&w.st)
	}
	for _, w := range c.ports {
		get(w.proto).add(&w.st)
	}
	return out
}

// flowCC forwards every FlowCC call, and every optional interface the
// network probes for, to the protocol's controller. It implements each
// optional interface unconditionally and forwards only when the inner
// controller does, which the network cannot tell apart from the inner
// controller alone: a missing OnReroute, OnRewind or Stop is a no-op
// either way.
type flowCC struct {
	inner netsim.FlowCC
	proto string
	st    hookStats
}

func (w *flowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	if w.st.tick(hookAllow) {
		t := time.Now()
		at, ok := w.inner.Allow(now, payload)
		w.st.record(hookAllow, t)
		return at, ok
	}
	return w.inner.Allow(now, payload)
}

func (w *flowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	if w.st.tick(hookOnSent) {
		t := time.Now()
		w.inner.OnSent(now, pkt)
		w.st.record(hookOnSent, t)
		return
	}
	w.inner.OnSent(now, pkt)
}

func (w *flowCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	if w.st.tick(hookOnAck) {
		t := time.Now()
		w.inner.OnAck(now, pkt)
		w.st.record(hookOnAck, t)
		return
	}
	w.inner.OnAck(now, pkt)
}

func (w *flowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	if w.st.tick(hookOnCNP) {
		t := time.Now()
		w.inner.OnCNP(now, pkt)
		w.st.record(hookOnCNP, t)
		return
	}
	w.inner.OnCNP(now, pkt)
}

func (w *flowCC) CurrentRate() netsim.Rate { return w.inner.CurrentRate() }

// OnReroute implements netsim.RouteAware.
func (w *flowCC) OnReroute(now sim.Time) {
	if ra, ok := w.inner.(netsim.RouteAware); ok {
		ra.OnReroute(now)
	}
}

// OnRewind implements netsim.RetxAware.
func (w *flowCC) OnRewind(now sim.Time, seq int64) {
	if ra, ok := w.inner.(netsim.RetxAware); ok {
		ra.OnRewind(now, seq)
	}
}

// Stop releases the controller's timers when the flow ends.
func (w *flowCC) Stop() {
	if s, ok := w.inner.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// portCC forwards every PortCC call to the protocol's switch element.
type portCC struct {
	inner netsim.PortCC
	proto string
	st    hookStats
}

func (w *portCC) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if w.st.tick(hookPortEnqueue) {
		t := time.Now()
		w.inner.OnEnqueue(now, pkt, qlen)
		w.st.record(hookPortEnqueue, t)
		return
	}
	w.inner.OnEnqueue(now, pkt, qlen)
}

func (w *portCC) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if w.st.tick(hookPortDequeue) {
		t := time.Now()
		w.inner.OnDequeue(now, pkt, qlen)
		w.st.record(hookPortDequeue, t)
		return
	}
	w.inner.OnDequeue(now, pkt, qlen)
}

// CCProtocol implements netsim.ProtocolNamer with the inner element's
// name, so conflict diagnostics name the protocol, not the wrapper.
func (w *portCC) CCProtocol() string { return netsim.CCProtocolName(w.inner) }

// Stop forwards to elements that own timers.
func (w *portCC) Stop() {
	if s, ok := w.inner.(interface{ Stop() }); ok {
		s.Stop()
	}
}
