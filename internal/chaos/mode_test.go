package chaos

import (
	"reflect"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// TestModeOverlayLeavesBaseStreamIntact: ModeProb must be a pure
// overlay — enabling the mode dimension never perturbs the scenario a
// seed has always generated; it may only set Mode (and, for the lossy
// mode, force flows reliable).
func TestModeOverlayLeavesBaseStreamIntact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		base := Generate(seed, GenOptions{})
		moded := Generate(seed, GenOptions{ModeProb: 0.5})

		if moded.Mode == "" {
			// The salted coin said no: the scenario must be untouched.
			if !reflect.DeepEqual(base, moded) {
				t.Fatalf("seed %d: no mode drawn but scenario differs:\n%+v\n%+v",
					seed, base, moded)
			}
			continue
		}
		if _, err := netsim.ParseOperatingMode(moded.Mode); err != nil {
			t.Fatalf("seed %d: overlay drew unparseable mode %q", seed, moded.Mode)
		}
		if !reflect.DeepEqual(base.Topology, moded.Topology) ||
			base.DurationNs != moded.DurationNs ||
			base.Protocol != moded.Protocol ||
			!reflect.DeepEqual(base.Faults, moded.Faults) {
			t.Fatalf("seed %d: mode overlay changed more than the mode", seed)
		}
		if len(base.Flows) != len(moded.Flows) {
			t.Fatalf("seed %d: mode overlay changed the flow count", seed)
		}
		lossy := moded.Mode == netsim.ModeCCOnlyLossy.String()
		for i := range base.Flows {
			b, m := base.Flows[i], moded.Flows[i]
			if lossy {
				b.Reliable = true // the one sanctioned mutation
			}
			if !reflect.DeepEqual(b, m) {
				t.Fatalf("seed %d flow %d: overlay changed more than reliability:\n%+v\n%+v",
					seed, i, b, m)
			}
		}
		if err := moded.Validate(); err != nil {
			t.Fatalf("seed %d: moded scenario invalid: %v", seed, err)
		}
	}
}

func TestModeOverlayDeterministic(t *testing.T) {
	sawPFC, sawLossy := false, false
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed, GenOptions{ModeProb: 1})
		b := Generate(seed, GenOptions{ModeProb: 1})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: mode overlay not deterministic", seed)
		}
		if a.Mode == "" {
			t.Fatalf("seed %d: ModeProb=1 left the default mode", seed)
		}
		switch a.Mode {
		case netsim.ModePFCOnly.String():
			sawPFC = true
		case netsim.ModeCCOnlyLossy.String():
			sawLossy = true
		}
	}
	if !sawPFC || !sawLossy {
		t.Fatalf("20 forced seeds never drew both modes (pfc=%v lossy=%v)", sawPFC, sawLossy)
	}
}

func TestValidateRejectsUnknownMode(t *testing.T) {
	sc := killScenario(FaultSwitchKill, int64(sim.Millisecond), int64(2*sim.Millisecond))
	sc.Mode = "chaotic-good"
	if err := sc.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown operating mode")
	}
	for _, m := range netsim.AllOperatingModes() {
		sc.Mode = m.String()
		if err := sc.Validate(); err != nil {
			t.Fatalf("Validate rejected mode %q: %v", sc.Mode, err)
		}
	}
}

// TestCleanModedScenariosTripNoInvariant extends the calibration gate to
// the mode dimension: fault-free scenarios must stay violation-free in
// every operating mode, for every protocol.
func TestCleanModedScenariosTripNoInvariant(t *testing.T) {
	gen := GenOptions{FaultScale: -1, MaxDuration: 5 * sim.Millisecond, ModeProb: 1}
	for _, p := range experiments.AllProtocols() {
		gen.Protocols = []experiments.Protocol{p}
		for seed := int64(0); seed < 3; seed++ {
			sc := Generate(seed, gen)
			if sc.Mode == "" {
				t.Fatalf("ModeProb=1 generated a default-mode scenario")
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("%s seed %d (%s, %s): clean moded run tripped %+v",
					p, seed, sc.Topology.Kind, sc.Mode, res.Violations)
			}
		}
	}
}

// A CC-only lossy scenario that actually drops must NOT trip the
// lossless-drops invariant — drops are the regime, not a violation —
// while the rest of the suite stays green.
func TestLossyModeDropsWithoutLosslessViolation(t *testing.T) {
	sc := Scenario{
		Seed:     11,
		Protocol: "DCQCN",
		Topology: TopologySpec{Kind: TopoStar, N: 12, Gbps: 10},
		// 12 x 400 KB through the 10G hub is ~3.9 ms of pure
		// serialization; the window adds room for go-back-N waste and
		// DCQCN convergence so every transfer can finish.
		DurationNs: int64(16 * sim.Millisecond),
		Mode:       netsim.ModeCCOnlyLossy.String(),
	}
	// An incast of line-rate reliable senders into the hub overwhelms
	// the capped buffer before CC converges.
	for i := 0; i < 12; i++ {
		sc.Flows = append(sc.Flows, FlowSpec{Src: i, Dst: 12, SizeBytes: 400 * 1000, Reliable: true})
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("lossy incast dropped nothing — the mode is not biting")
	}
	if res.PFCFrames != 0 {
		t.Fatalf("lossy mode emitted %d PFC frames", res.PFCFrames)
	}
	if res.Violated(InvLosslessDrops) {
		t.Fatal("lossless_drops tripped in a mode where drops are sanctioned")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("lossy scenario tripped %+v", res.Violations)
	}
	if res.FlowsDone != len(sc.Flows) {
		t.Fatalf("only %d/%d reliable transfers completed over go-back-N",
			res.FlowsDone, len(sc.Flows))
	}
}

// TestModedSoakBatchClean is the acceptance gate for the mode dimension:
// a fixed-seed soak batch with modes, mixing and kills all enabled must
// come back with zero invariant failures.
func TestModedSoakBatchClean(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 30
	}
	rep := Soak(SoakOptions{
		Seed:  4242,
		Count: count,
		Gen:   GenOptions{ModeProb: 0.4, MixProb: 0.2, FailProb: 0.2},
	})
	if rep.Scenarios != count {
		t.Fatalf("ran %d scenarios, want %d", rep.Scenarios, count)
	}
	if rep.Moded == 0 {
		t.Fatal("no scenario drew a non-default mode")
	}
	for _, v := range rep.Verdicts {
		if v.Failed() {
			t.Errorf("seed %d (%s, %s, %s): %+v %s",
				v.Seed, v.ProtocolLabel(), v.Topology, v.ModeLabel(), v.Result.Violations, v.Err)
		}
	}
}
