// Command perfbench is the simulator's benchmark. It drives four fixed
// workloads through the same public entry points cmd/roccsim calls,
// checks their simulated outputs, and prints end-to-end host-time
// metrics; with -trace 1 it instead runs each workload once more with
// spans, CC-call wrappers and a CPU profile, and prints per-layer
// metrics. See README.md for the workloads and the metric map.
//
//	perfbench -workload fct-websearch -seed 1 -seconds 20 -trace 0
//	perfbench compare <parent-results-dir> <change-results-dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric the benchmark's JSON line carries.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, for every
// workload; lower is better. The times are process CPU time: on a shared
// virtual machine, wall time also counts the time the hypervisor gives
// this machine's CPUs to others, and its spread over ten runs of one
// workload reached a third of its median, while CPU time's stayed under
// a fifth. Memory is the heap allocated, which repeats within a percent;
// the peak live heap of the soak, whose two workers' scenarios overlap
// differently from run to run, spread by more than a quarter. Wall time
// and peak heap are reported beside them as extras.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics every traced run reports, for every
// workload. Workload-specific layer metrics (per-protocol CC hooks,
// shard scaling, chaos per-protocol cost) go to the result file's extra
// section, because a metric here must be measured on all workloads.
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"netsim.routes_s", "s"},
	{"topology.partition_s", "s"},
	{"experiments.wire_s", "s"},
	{"experiments.flow_start_s", "s"},
	{"sim.events", "count"},
	{"sim.max_pending", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.tx_pkts", "count"},
	{"netsim.events_per_pkt", "ratio"},
	{"netsim.ns_per_pkt", "ns"},
	{"netsim.drops", "count"},
	{"netsim.pfc_frames", "count"},
	{"netsim.flows_started", "count"},
	{"netsim.flows_done", "count"},
	{"netsim.ns_per_flow", "ns"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"prof.share.sim", "ratio"},
	{"prof.share.netsim", "ratio"},
	{"prof.share.cc", "ratio"},
	{"prof.share.chaos", "ratio"},
	{"prof.share.runtime", "ratio"},
	{"prof.share.setup", "ratio"},
	{"prof.share.other", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value. Samples holds the per-operation values
// a median came from (absent for single measurements).
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// check is one output-correctness check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one invocation measured, written to the result
// file; the last stdout line is its contract subset.
type result struct {
	Manifest  manifest          `json:"manifest"`
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Digests   map[string]string `json:"digests"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
}

func (r *result) check(name string, ok bool, detail string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}

// set records a single measurement.
func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: 1}
}

// setExtra records a workload-specific measurement.
func (r *result) setExtra(name, unit string, v float64) {
	r.Extra[name] = metric{Value: v, Unit: unit, N: 1}
}

// setMedian records the median of per-operation values.
func (r *result) setMedian(name, unit string, xs []float64) {
	r.Metrics[name] = medianOf(unit, xs)
}

// setExtraMedian records the median of workload-specific values.
func (r *result) setExtraMedian(name, unit string, xs []float64) {
	r.Extra[name] = medianOf(unit, xs)
}

func medianOf(unit string, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{Value: median(xs), Unit: unit, N: len(xs), Q1: q1, Q3: q3, Samples: xs}
}

// endToEndFrom fills the end-to-end metrics from the operations'
// samples and the set-up probes, and records wall time as an extra.
func (r *result) endToEndFrom(ss []sample, setups []float64) {
	var walls, cpus, allocs, heaps []float64
	for _, s := range ss {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		allocs = append(allocs, s.allocMB)
		heaps = append(heaps, s.heapMB)
	}
	r.setMedian("cpu_s", "s", cpus)
	r.setMedian("setup_s", "s", setups)
	r.setMedian("alloc_mb", "MB", allocs)
	r.setExtraMedian("wall_s", "s", walls)
	// The process's peak is the largest of its operations' peaks.
	m := medianOf("MB", heaps)
	for _, h := range heaps {
		m.Value = math.Max(m.Value, h)
	}
	r.Extra["peak_heap_mb"] = m
}

// bench is one invocation's context, handed to a workload.
type bench struct {
	seed     int64
	deadline time.Time
	hw       *heapWatch
	res      *result
}

// more reports whether another untraced operation should start: always
// the first, then until the run's measuring time is used up.
func (b *bench) more(done int) bool {
	return done == 0 || time.Now().Before(b.deadline)
}

// benchWorkload is one named benchmark input.
type benchWorkload struct {
	name string
	// measure runs untraced operations until the deadline.
	measure func(b *bench)
	// traced runs one untraced and one traced operation.
	traced func(b *bench)
}

var workloads = []benchWorkload{fctWorkload(webSearch), fctWorkload(hadoop), k16Workload(), soakWorkload()}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(runBench(os.Args[1:], os.Stdout))
}

func runBench(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the untraced run keeps starting operations")
	trace := fs.Int("trace", 0, "1 runs the traced workload and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	res := &result{
		Manifest: newManifest(*seed, *seconds, *trace == 1),
		Workload: w.name,
		Digests:  map[string]string{},
		Metrics:  map[string]metric{},
		Extra:    map[string]metric{},
	}
	b := &bench{seed: *seed, hw: startHeapWatch(), res: res}
	start := time.Now()
	b.deadline = start.Add(time.Duration(*seconds * float64(time.Second)))
	if *trace == 1 {
		w.traced(b)
	} else {
		w.measure(b)
	}
	b.hw.close()
	res.Manifest.PhasesS["total"] = time.Since(start).Seconds()

	res.Correct = res.Attempted > 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line := map[string]any{}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.check("metric_"+d.name, false, "not measured")
			res.Correct = false
			continue
		}
		line[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
	}

	path, err := writeResult(*out, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, res, defs, path)
	final, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": line,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// writeResult stores the full result, manifest and spans included, under
// a name that sorts by workload, trace mode and seed.
func writeResult(dir string, res *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating result dir: %w", err)
	}
	mode := "e2e"
	if res.Manifest.Trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.seed%d.%d.json", res.Workload, mode, res.Manifest.Seed, time.Now().UnixNano()))
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing result: %w", err)
	}
	return path, nil
}

// printReport writes the human-readable lines: manifest, every metric
// with unit and sample count, extras, digests and checks.
func printReport(w io.Writer, res *result, defs []metricDef, path string) {
	m := res.Manifest
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v commit=%.12s dirty=%v %s cpus=%d gomaxprocs=%d shards=%d workers=%d\n",
		res.Workload, m.Seed, m.Trace, m.Commit, m.Dirty, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Shards, m.Workers)
	row := func(name string, v metric) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d", name, v.Value, v.Unit, v.N)
		if v.N > 1 {
			fmt.Fprintf(w, "  q1=%.6g q3=%.6g", v.Q1, v.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			row(d.name, v)
		}
	}
	var extra []string
	for k := range res.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		row(k, res.Extra[k])
	}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", "failed_frac", failedFrac, "ratio", res.Attempted)
	var keys []string
	for k := range res.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  digest %-27s %s\n", k, res.Digests[k])
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s %s\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(w, "  result file %s\n", path)
}

// goStats is the runtime's allocation and collection work between two
// points.
type goStats struct{ allocMB, gcCycles, gcPauseMs float64 }

func readGoStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func goDelta(a, b runtime.MemStats) goStats {
	return goStats{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

func (r *result) setGo(g goStats) {
	r.set("go.alloc_mb", "MB", g.allocMB)
	r.set("go.gc_cycles", "count", g.gcCycles)
	r.set("go.gc_pause_ms", "ms", g.gcPauseMs)
}
