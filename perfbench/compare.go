package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// judgement is one metric's comparison on one workload.
type judgement struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	pairs                         int
	winFrac                       float64
	verdict                       string
}

// judge applies the benchmark's rules to one metric's runs, paired in
// order. A gain needs at least ten pairs, nine tenths of them won (ties
// count for neither) and a median difference larger than the parent's
// quartile spread. Where the parent's spread, as a share of its median,
// exceeds the bound, the metric is unresolved unless every change run
// beats every parent run. Otherwise a median worse by more than the
// bound is a regression.
func judge(parent, change []float64, bound float64, lowerBetter bool) judgement {
	j := judgement{parentMed: median(parent), changeMed: median(change)}
	j.parentQ1, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeQ3 = quartiles(change)
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	j.pairs = len(parent)
	if len(change) < j.pairs {
		j.pairs = len(change)
	}
	won := 0
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	if j.pairs > 0 {
		j.winFrac = float64(won) / float64(j.pairs)
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := j.parentQ3 - j.parentQ1
	worse := (j.changeMed - j.parentMed) / j.parentMed
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case spread/math.Abs(j.parentMed) > bound && !allBetter:
		j.verdict = "unresolved"
	case j.pairs >= minPairs && j.winFrac >= 0.9 && better(j.changeMed, j.parentMed) &&
		math.Abs(j.changeMed-j.parentMed) > spread:
		j.verdict = "improved"
	case worse > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "within bound"
	}
	return j
}

// loadResults reads every untraced result file in dir, by workload,
// ordered by seed and then file name so the two sides pair by seed.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("listing %s: %w", dir, err)
	}
	sort.Strings(paths)
	out := map[string][]result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("reading result: %w", err)
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", p, err)
		}
		if r.Manifest.Trace || r.Workload == "" {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Manifest.Seed < rs[j].Manifest.Seed })
	}
	return out, nil
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] <parent-dir> <change-dir>")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: reading benchmark definition:", err)
		return 2
	}
	parent, err := loadResults(fs.Arg(0))
	if err == nil {
		var change map[string][]result
		change, err = loadResults(fs.Arg(1))
		if err == nil {
			return compare(w, spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

// compare prints one block per workload and returns 1 when any metric
// regressed, any digest differs or more operations failed.
func compare(w io.Writer, spec benchSpec, parent, change map[string][]result) int {
	status := 0
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ps, cs := parent[name], change[name]
		fmt.Fprintf(w, "%s: parent n=%d, change n=%d\n", name, len(ps), len(cs))
		fmt.Fprintf(w, "  %-14s %-32s %-32s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
		for _, m := range spec.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(pv, cv, m.Bound, m.Better != "higher")
			if j.verdict == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "  %-14s %-32s %-32s %5.0f%% %s (bound %g)\n", m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", j.parentMed, j.parentQ1, j.parentQ3, m.Unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", j.changeMed, j.changeQ1, j.changeQ3, m.Unit),
				100*j.winFrac, j.verdict, m.Bound)
		}
		same, differ := digestsBySeed(ps, cs)
		if len(differ) > 0 {
			status = 1
			fmt.Fprintf(w, "  digests: DIFFER on seeds %s (identical on %d)\n", strings.Join(differ, ","), same)
		} else {
			fmt.Fprintf(w, "  digests: identical on %d shared seeds\n", same)
		}
		pf, cf := failedFrac(ps), failedFrac(cs)
		if cf > pf {
			status = 1
		}
		fmt.Fprintf(w, "  failed_frac: parent %.6g, change %.6g, delta %+.6g\n", pf, cf, cf-pf)
	}
	return status
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// digestsBySeed compares output digests between the sides, seed by seed.
func digestsBySeed(ps, cs []result) (same int, differ []string) {
	bySeed := func(rs []result) map[int64]string {
		m := map[int64]string{}
		for _, r := range rs {
			keys := make([]string, 0, len(r.Digests))
			for k := range r.Digests {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, k+"="+r.Digests[k])
			}
			m[r.Manifest.Seed] = strings.Join(parts, " ")
		}
		return m
	}
	pm, cm := bySeed(ps), bySeed(cs)
	var seeds []int64
	for s := range pm {
		if _, ok := cm[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		if pm[s] == cm[s] {
			same++
		} else {
			differ = append(differ, fmt.Sprint(s))
		}
	}
	return same, differ
}

func failedFrac(rs []result) float64 {
	att, failed := 0, 0
	for _, r := range rs {
		att += r.Attempted
		failed += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}
