package main

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one untraced operation's host cost.
type sample struct {
	wall, cpu, allocMB, heapMB float64
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapWatch samples the Go heap every few milliseconds and keeps the
// peak since the last reset. It watches the heap the last collection
// found live: the total heap also holds garbage not yet collected, whose
// peak depends on where collections happen to fall, and so varied from
// run to run by a third on the same input.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap.
func (h *heapWatch) reset() {
	h.peak.Store(0)
	h.observe()
}

// peakMB returns the peak since the last reset.
func (h *heapWatch) peakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	h.done.Wait()
}

// allocatedMB is the heap allocated by the process so far.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timed runs fn after a collection, so every operation starts from the
// same heap, and returns its wall time, CPU time, allocation and peak
// heap.
func timed(hw *heapWatch, fn func()) sample {
	runtime.GC()
	hw.reset()
	a0 := allocatedMB()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	return sample{wall: wall, cpu: cpuSeconds() - c0, allocMB: allocatedMB() - a0, heapMB: hw.peakMB()}
}

// setupProbes is how many set-ups an untraced run times: one probe
// of a millisecond-scale set-up is mostly timer noise.
const setupProbes = 5

// probeSetup times setupProbes runs of a workload's set-up in process
// CPU time, after a collection so garbage from earlier work is not
// collected on its time.
func probeSetup(setup func()) []float64 {
	runtime.GC()
	out := make([]float64, setupProbes)
	for i := range out {
		c0 := cpuSeconds()
		setup()
		out[i] = cpuSeconds() - c0
	}
	return out
}

// median of xs (NaN-free, non-empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method, which extrapolates past the ends of small samples), so the
// comparator and the acceptance check agree. A single value is both
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// manifest stamps a result with everything needed to reproduce it.
type manifest struct {
	Commit     string             `json:"commit"`
	Dirty      bool               `json:"dirty"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Shards     int                `json:"shards"`
	Workers    int                `json:"workers"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Params     map[string]any     `json:"params"`
	PhasesS    map[string]float64 `json:"phases_s"`
	Started    string             `json:"started"`
}

// commit reads the VCS stamp the go command embeds; outside a git
// checkout it falls back to asking git, and reports "unknown" when
// neither knows.
func commit() (string, bool) {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev != "" {
		return rev, dirty
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

func newManifest(seed int64, seconds float64, trace bool) manifest {
	rev, dirty := commit()
	return manifest{
		Commit:     rev,
		Dirty:      dirty,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		PhasesS:    map[string]float64{},
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}
