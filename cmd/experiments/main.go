// Command experiments regenerates the tables and figures of the Stay-Away
// paper's evaluation (§7) against the simulated substrate.
//
// Usage:
//
//	experiments [-seed N] [-o DIR] [-fig LIST | -summary | -ablations | -chaos | -all]
//
//	-fig 1,8,9     regenerate specific figures (1,4,5,6,7,8,9,10,11,12,
//	               13,14,15,16,17,18)
//	-summary       run the headline utilization summary (10–70% claim)
//	-ablations     run the binary-vs-graded throttling ablation
//	-chaos         run the fault-injection suite (non-zero exit on failure)
//	-reload-chaos  run the reload-under-fault suite: lane adds/removes/
//	               reconfigurations interleaved with crashes and injected
//	               cgroupfs faults (non-zero exit on any ledger-invariant
//	               violation)
//	-multitenant   run the two-sensitive conflicting-lane scenario
//	-sched         run the cluster-placement-vs-baselines ablation
//	-fleet         run the streaming fleet-convergence simulation
//	-scenarios     run the open-loop scenario zoo and the open-vs-closed
//	               QoS ablation (non-zero exit when the ablation gap
//	               closes, protection regresses a class, Stay-Away
//	               violates more than its reactive arm, or the suite is
//	               nondeterministic)
//	-all           regenerate everything including the summary, ablations,
//	               multi-tenant scenario, placement ablation, fleet
//	               convergence, scenario zoo, reactive reference and
//	               chaos suite
//	-o DIR         additionally write each figure to DIR/<id>.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fsatomic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "random seed for all scenarios")
	figList := flag.String("fig", "", "comma-separated figure numbers to regenerate")
	summary := flag.Bool("summary", false, "run the headline utilization summary")
	ablations := flag.Bool("ablations", false, "run the binary-vs-graded throttling ablation")
	chaosSuite := flag.Bool("chaos", false, "run the fault-injection suite")
	reloadChaos := flag.Bool("reload-chaos", false, "run the reload-under-fault suite (lane lifecycle + crashes + injected faults)")
	multiTenant := flag.Bool("multitenant", false, "run the two-sensitive conflicting-lane scenario")
	schedAblation := flag.Bool("sched", false, "run the cluster-placement-vs-baselines ablation")
	fleetConv := flag.Bool("fleet", false, "run the streaming fleet-convergence simulation (non-zero exit when convergence misses the 99% floor)")
	scenarios := flag.Bool("scenarios", false, "run the open-loop scenario zoo (non-zero exit on a failed gate)")
	all := flag.Bool("all", false, "regenerate every figure and the summary")
	outDir := flag.String("o", "", "directory to write per-figure text files into")
	flag.Parse()

	gens := map[int]func(int64) (*experiments.Figure, error){
		1:  experiments.Fig01,
		4:  func(int64) (*experiments.Figure, error) { return experiments.Fig04() },
		5:  experiments.Fig05,
		6:  experiments.Fig06,
		7:  experiments.Fig07,
		8:  experiments.Fig08,
		9:  experiments.Fig09,
		10: experiments.Fig10,
		11: experiments.Fig11,
		12: experiments.Fig12,
		13: experiments.Fig13,
		14: experiments.Fig14,
		15: experiments.Fig15,
		16: experiments.Fig16,
		17: func(s int64) (*experiments.Figure, error) { f, _, err := experiments.Fig17(s); return f, err },
		18: experiments.Fig18,
	}
	order := []int{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}

	var wanted []int
	switch {
	case *all:
		wanted = order
	case *figList != "":
		for _, part := range strings.Split(*figList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad figure number %q", part)
			}
			if _, ok := gens[n]; !ok {
				return fmt.Errorf("unknown figure %d", n)
			}
			wanted = append(wanted, n)
		}
	case *summary || *ablations || *chaosSuite || *reloadChaos || *multiTenant || *schedAblation || *fleetConv || *scenarios:
		// handled below
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -fig, -summary, -ablations, -chaos, -reload-chaos, -multitenant, -sched, -fleet, -scenarios or -all")
	}

	emit := func(f *experiments.Figure) error {
		fmt.Printf("======== %s — %s ========\n%s\n", f.ID, f.Title, f.Text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, f.ID+".txt")
			if err := fsatomic.WriteFile(path, []byte(f.Title+"\n\n"+f.Text), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	for _, n := range wanted {
		f, err := gens[n](*seed)
		if err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *summary || *all {
		f, err := experiments.Summary(*seed)
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *ablations || *all {
		f, err := experiments.AblationGraded(*seed)
		if err != nil {
			return fmt.Errorf("graded ablation: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *multiTenant || *all {
		f, err := experiments.MultiTenant(*seed)
		if err != nil {
			return fmt.Errorf("multi-tenant scenario: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *schedAblation || *all {
		f, err := experiments.SchedAblation(*seed)
		if err != nil {
			return fmt.Errorf("placement ablation: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *fleetConv || *all {
		f, report, err := experiments.FleetConvergence(*seed)
		if err != nil {
			return fmt.Errorf("fleet convergence: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
		// The CI gate: every simulated fleet size must reach the paper-
		// scale convergence floor, and delta sync must beat whole-template
		// polling on bytes.
		for _, r := range report.Rows {
			if r.WithinPeriodFrac < 0.99 {
				return fmt.Errorf("fleet convergence: %d hosts: only %.2f%% of streaming subscribers converged within one period (floor 99%%)",
					r.Hosts, 100*r.WithinPeriodFrac)
			}
			if r.DeltaBytes >= r.FullBytes {
				return fmt.Errorf("fleet convergence: %d hosts: delta sync shipped %d bytes, whole-template polling %d — delta must win",
					r.Hosts, r.DeltaBytes, r.FullBytes)
			}
		}
	}
	var zoo *experiments.ZooReport
	if *scenarios || *all {
		f, report, err := experiments.ScenarioZoo(*seed)
		if err != nil {
			return fmt.Errorf("scenario zoo: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
		// Gate 1: the open-loop QoS must register violations under the
		// throttle schedule that the closed-loop grant-ratio QoS misses.
		if report.Ablation.ClosedViolations >= report.Ablation.OpenViolations {
			return fmt.Errorf("scenario zoo: open-vs-closed gap closed: open=%d closed=%d violations",
				report.Ablation.OpenViolations, report.Ablation.ClosedViolations)
		}
		// Gate 2: Stay-Away must not regress any class, and the protected
		// co-location must still get batch work done.
		for _, r := range report.Rows {
			if r.ProtectedRate > r.UnprotectedRate {
				return fmt.Errorf("scenario zoo: %s: protection regressed the violation rate (%.3f > %.3f)",
					r.Class, r.ProtectedRate, r.UnprotectedRate)
			}
			if r.BatchWork <= 0 {
				return fmt.Errorf("scenario zoo: %s: protected run performed no batch work", r.Class)
			}
		}
		// Gate 3: the suite must replay deterministically for CI.
		g, _, err := experiments.ScenarioZoo(*seed)
		if err != nil {
			return fmt.Errorf("scenario zoo replay: %w", err)
		}
		for k, v := range f.Summary {
			if g.Summary[k] != v {
				return fmt.Errorf("scenario zoo: nondeterministic replay: summary[%q] %v vs %v",
					k, v, g.Summary[k])
			}
		}
		// Gate 4: the forecast must not cost violations against reacting
		// alone (the reactive reference).
		for _, r := range report.Rows {
			fmt.Printf("gate %-20s violations: Stay-Away %.3f <= reactive %.3f\n", r.Class, r.ProtectedRate, r.ReactiveRate)
			if r.ProtectedRate > r.ReactiveRate {
				return fmt.Errorf("scenario zoo: %s: Stay-Away violates more than its reactive arm (%.3f > %.3f)",
					r.Class, r.ProtectedRate, r.ReactiveRate)
			}
		}
		zoo = report
	}
	if *all {
		f, err := experiments.ReactiveReference(*seed, zoo)
		if err != nil {
			return fmt.Errorf("reactive reference: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *chaosSuite || *all {
		f, err := experiments.Chaos(*seed)
		if err != nil {
			return fmt.Errorf("chaos suite: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	if *reloadChaos || *all {
		f, err := experiments.ReloadChaos(*seed)
		if err != nil {
			return fmt.Errorf("reload chaos suite: %w", err)
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}
