package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runRecord is one run of one workload in a result set.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// resultSet is what `bench -out` writes and `bench -compare` reads.
type resultSet struct {
	Seconds int         `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over a set's runs.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if v, ok := r.EndToEnd[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func (s *resultSet) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// runAll runs the whole benchmark runs times — every workload, the
// untraced pass and, when both is set, the traced pass too — printing
// each result to w and collecting them.
func runAll(ctx context.Context, w io.Writer, env *benchEnv, names []string, byName map[string]workloadFunc, runs int, seed int64, seconds int, both bool) (*resultSet, int) {
	set := &resultSet{Seconds: seconds}
	code := 0
	for r := 0; r < runs; r++ {
		for _, name := range names {
			rec := runRecord{Workload: name, Seed: seed + int64(r), Correct: true, EndToEnd: map[string]float64{}}
			for _, traced := range []bool{false, true} {
				if traced && !both {
					continue
				}
				res, notes, err := byName[name](ctx, env, rec.Seed, seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return set, 1
				}
				printResult(w, name, traced, res, notes)
				if !res.Correct {
					rec.Correct, code = false, 1
				}
				if traced {
					rec.PerLayer = map[string]float64{}
					for k, m := range res.Metrics {
						rec.PerLayer[k] = m.Value
					}
					continue
				}
				rec.Attempted, rec.Failed = res.Attempted, res.Failed
				for k, m := range res.Metrics {
					rec.EndToEnd[k] = m.Value
				}
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	return set, code
}

// verdict compares one end-to-end metric of one workload between a
// parent set a and a change set b, by the benchmark's own bound.
//
//   - unresolved: the run-to-run spread of either side exceeds the bound,
//     so a shift of the bound's size could not be told from noise —
//     unless every run of b reads better than every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b's median is better than a's by more than both sides' spread;
//   - same: anything else.
func verdict(m metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	higher := m.better == "higher"
	// worsening is how much worse b's median is than a's, as a share of
	// a's: positive is worse.
	ma, mb := median(a), median(b)
	worsening := ratio(mb-ma, math.Abs(ma))
	if higher {
		worsening = -worsening
	}
	noise := spread(a)
	if s := spread(b); s > noise {
		noise = s
	}
	if noise > m.bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		if (!higher && sb[len(sb)-1] < sa[0]) || (higher && sb[0] > sa[len(sa)-1]) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worsening > m.bound:
		return "worse"
	case worsening < 0 && -worsening > noise:
		return "better"
	}
	return "same"
}

// compareSets prints one row per workload × end-to-end metric and
// returns how many are worse.
func compareSets(w io.Writer, a, b *resultSet) int {
	worse := 0
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	names := a.workloads()
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range endToEnd {
			va, vb := a.values(wl, m.name), b.values(wl, m.name)
			if len(va) == 0 && len(vb) == 0 {
				continue // a metric this workload does not report (daemon-cgroup)
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-16s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n",
				wl, m.name, median(va), median(vb), 100*ratio(median(vb)-median(va), math.Abs(median(va))), 100*m.bound, v)
		}
	}
	return worse
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if worse := compareSets(w, a, b); worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse by more than their bound\n", worse)
		return 1
	}
	return 0
}

// runStability runs the whole benchmark (untraced pass) n times in each
// of two sets with disjoint seeds, the way the acceptance check does, and
// prints per workload × metric each set's median and quartiles against
// the bound — as Markdown, so the output is STABILITY.md.
func runStability(ctx context.Context, env *benchEnv, names []string, byName map[string]workloadFunc, n int, seed int64, seconds int) int {
	var sets [2]*resultSet
	for i := range sets {
		set, code := runAll(ctx, os.Stderr, env, names, byName, n, seed+int64(i*n), seconds, false)
		if code != 0 {
			return code
		}
		sets[i] = set
	}
	return printStability(os.Stdout, names, sets, n, seed, seconds)
}

func printStability(w io.Writer, names []string, sets [2]*resultSet, n int, seed int64, seconds int) int {
	fmt.Fprintf(w, "\n# Stability: two sets of %d runs, seeds %d..%d and %d..%d, %d s each\n\n", n, seed, seed+int64(n)-1, seed+int64(n), seed+int64(2*n)-1, seconds)
	fmt.Fprintln(w, "Spread is the distance between the first and third quartile as a share of the median")
	fmt.Fprintln(w, "(Python's `statistics.quantiles(values, n=4)`). A row holds when both spreads are within")
	fmt.Fprintln(w, "the bound and set B's median is not worse than set A's by more than the bound.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A | bound | holds |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, wl := range names {
		for _, m := range endToEnd {
			a, b := sets[0].values(wl, m.name), sets[1].values(wl, m.name)
			if len(a) == 0 && len(b) == 0 {
				continue // a metric this workload does not report (daemon-cgroup)
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worsening := ratio(b2-a2, math.Abs(a2))
			if m.better == "higher" {
				worsening = -worsening
			}
			ok := worsening <= m.bound
			// setup_s is exempt from the spread rule, not from the median rule.
			if m.name != "setup_s" {
				ok = ok && spread(a) <= m.bound && spread(b) <= m.bound
			}
			holds := "yes"
			switch {
			case wl == daemonWorkload:
				// Reported, not gated (README.md): its rows show what to
				// expect, they cannot fail the table.
				holds = "not gated"
			case !ok:
				holds = "NO"
				bad++
			}
			fmt.Fprintf(w, "| %s | %s | %.5g [%.5g, %.5g] | %.1f%% | %.5g [%.5g, %.5g] | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				wl, m.name, a2, a1, a3, 100*spread(a), b2, b1, b3, 100*spread(b), 100*ratio(b2-a2, math.Abs(a2)), 100*m.bound, holds)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d row(s) do not hold.\n", bad)
		return 1
	}
	return 0
}
