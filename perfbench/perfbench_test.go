package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestNames checks every workload and metric name the benchmark can
// emit, and that BENCHMARK.json lists exactly the metrics the program
// prints, with the same units.
func TestNames(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	for _, l := range setupLayers {
		names = append(names, l.metric)
	}
	for _, p := range append(experiments.AllProtocols(), "mixed") {
		names = append(names, "chaos.scenario_ms."+protoKey(string(p)))
		for _, h := range hookNames {
			names = append(names, "cc."+h+"."+protoKey(string(p))+".calls", "cc."+h+"."+protoKey(string(p))+".ns")
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

type fakeFlow struct {
	netsim.NoCC
	rerouted, rewound, stopped bool
}

func (f *fakeFlow) OnReroute(sim.Time)       { f.rerouted = true }
func (f *fakeFlow) OnRewind(sim.Time, int64) { f.rewound = true }
func (f *fakeFlow) Stop()                    { f.stopped = true }

type fakePort struct{ stopped bool }

func (*fakePort) OnEnqueue(sim.Time, *netsim.Packet, int) {}
func (*fakePort) OnDequeue(sim.Time, *netsim.Packet, int) {}
func (*fakePort) CCProtocol() string                      { return "fake" }
func (p *fakePort) Stop()                                 { p.stopped = true }

type plainPort struct{}

func (plainPort) OnEnqueue(sim.Time, *netsim.Packet, int) {}
func (plainPort) OnDequeue(sim.Time, *netsim.Packet, int) {}

// TestWrappersForward checks the wrappers pass on every optional
// interface the network probes for, and stay no-ops where the wrapped
// controller has none.
func TestWrappersForward(t *testing.T) {
	cc := &ccTracer{}
	inner := &fakeFlow{}
	w := cc.wrapFlow("RoCC")(inner)
	w.(netsim.RouteAware).OnReroute(0)
	w.(netsim.RetxAware).OnRewind(0, 0)
	w.(interface{ Stop() }).Stop()
	if !inner.rerouted || !inner.rewound || !inner.stopped {
		t.Errorf("flow wrapper forwarded reroute=%v rewind=%v stop=%v", inner.rerouted, inner.rewound, inner.stopped)
	}
	plain := cc.wrapFlow("RoCC")(netsim.NoCC{})
	plain.(netsim.RouteAware).OnReroute(0)
	plain.(netsim.RetxAware).OnRewind(0, 0)
	plain.(interface{ Stop() }).Stop()

	p := &fakePort{}
	wp := &portCC{inner: p}
	if got := netsim.CCProtocolName(wp); got != "fake" {
		t.Errorf("wrapped port named %q, want fake", got)
	}
	wp.Stop()
	if !p.stopped {
		t.Error("port wrapper did not forward Stop")
	}
	if got, want := netsim.CCProtocolName(&portCC{inner: plainPort{}}), netsim.CCProtocolName(plainPort{}); got != want {
		t.Errorf("wrapped plain port named %q, want %q", got, want)
	}
}

// TestWrappedRunDigest checks that a cell assembled by the benchmark
// with every CC element wrapped, spans, telemetry and a second route
// computation produces RunFCT's exact output, for protocols that use
// CNPs, ECN marks, INT echoes and RTT-sampling ACKs.
func TestWrappedRunDigest(t *testing.T) {
	for _, proto := range []experiments.Protocol{experiments.ProtoRoCC, experiments.ProtoDCQCN, experiments.ProtoHPCC, experiments.ProtoTIMELY} {
		cfg := fctConfig(hadoop, 3)
		cfg.Protocol = proto
		cfg.FatTree = topology.ScaledFatTree(4)
		cfg.Duration = 2 * sim.Millisecond
		cfg.Warmup = cfg.Duration / 6
		want := fctDigest(experiments.RunFCT(cfg))

		cc := &ccTracer{}
		rig := buildFCT(cfg, newTracer("test"), 0, cc, telemetry.New())
		out := rig.run()
		if got := fctDigest(out); got != want {
			t.Errorf("%s: wrapped digest %s, RunFCT %s", proto, got, want)
		}
		if out.FlowsDone == 0 {
			t.Errorf("%s: no flows finished", proto)
		}
		calls := uint64(0)
		for _, st := range cc.byProtocol() {
			for _, c := range st.calls {
				calls += c
			}
		}
		if calls == 0 {
			t.Errorf("%s: wrappers saw no calls", proto)
		}
	}
}

// TestShardedWrappedDigest runs the k16 assembly, wrapped and traced, on
// a small fabric at two shards, so the wrappers run on concurrent shard
// goroutines (run it with -race), and checks RunScaleBench's digest at
// one and two shards.
func TestShardedWrappedDigest(t *testing.T) {
	cfg := k16Config(5, 2)
	cfg.FatTree = topology.FatTreeConfig{
		Cores: 2, Edges: 4, HostsPerEdge: 8, LinksPerPair: 1,
		HostRate: netsim.Gbps(40), CoreRate: netsim.Gbps(80),
	}
	cfg.Flows = 200
	cfg.Duration = 100 * sim.Microsecond
	want := experiments.RunScaleBench(cfg).Digest
	serial := cfg
	serial.Shards = 1
	if got := experiments.RunScaleBench(serial).Digest; got != want {
		t.Fatalf("RunScaleBench digest %s at one shard, %s at two", got, want)
	}
	cc := &ccTracer{}
	rig := buildK16(cfg, newTracer("test"), 0, cc, telemetry.New())
	rig.engine.RunUntil(cfg.Duration)
	if got := rig.digest(); got != want {
		t.Errorf("wrapped digest %s, RunScaleBench %s", got, want)
	}
	if rig.group.Shards() != 2 {
		t.Errorf("ran on %d shards, want 2", rig.group.Shards())
	}
	if len(cc.byProtocol()) == 0 {
		t.Error("wrappers saw no calls")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func seq(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i)
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := seq(100, 0.2, 10) // 100..101.8: spread ~1%
	for _, tc := range []struct {
		name   string
		change []float64
		bound  float64
		want   string
	}{
		{"all pairs won", seq(90, 0.2, 10), 0.1, "improved"},
		{"nine of ten won", append(seq(90, 0.2, 9), 200), 0.1, "improved"},
		{"eight of ten won", append(seq(90, 0.2, 8), 200, 200), 0.1, "within bound"},
		{"difference inside parent spread", seq(99.5, 0.2, 10), 0.1, "within bound"},
		{"too few pairs", seq(90, 0.2, 5), 0.1, "within bound"},
		{"worse beyond bound", seq(120, 0.2, 10), 0.1, "regressed"},
		{"worse within bound", seq(105, 0.2, 10), 0.1, "within bound"},
	} {
		if got := judge(parent, tc.change, tc.bound, true).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	noisy := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 150} // spread ~50% of median
	if got := judge(noisy, seq(95, 1, 10), 0.1, true).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
	if got := judge(noisy, seq(20, 1, 10), 0.1, true).verdict; got != "improved" {
		t.Errorf("noisy parent, every change run better: verdict %q, want improved", got)
	}
	if got := judge(parent, seq(120, 0.2, 10), 0.1, false).verdict; got != "improved" {
		t.Errorf("higher-is-better gain: verdict %q, want improved", got)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := seq(1, 1, 40)
	v, pct := tailPercentile(xs)
	if v != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, pct)
	}
	if v, pct := tailPercentile(seq(1, 1, 5)); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want max at p100", v, pct)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rocc/internal/sim.(*Engine).Step":          "sim",
		"container/heap.down":                       "sim",
		"rocc/internal/netsim.(*Port).kick":         "netsim",
		"rocc/internal/roccnet.(*CP).OnEnqueue":     "cc",
		"rocc/internal/chaos.Run.func3":             "chaos",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"rocc/internal/topology.BuildFatTree":       "setup",
		"rocc/internal/experiments.(*Mix).register": "setup",
		"main.(*flowCC).Allow":                      "other",
		"":                                          "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileShares profiles a busy loop and checks the decoded shares
// form a distribution.
func TestProfileShares(t *testing.T) {
	x := 0
	shares := profile(func() {
		for i := 0; i < 3e8; i++ {
			x += i % 7
		}
	})
	if shares["error"] != 0 {
		t.Skip("no CPU profile samples on this machine")
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
	_ = x
}
