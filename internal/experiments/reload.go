package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cgroup"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/throttle"
)

// reloadEnv is a mutable scripted host: the suite flips per-application
// violation flags and the lane set between periods.
type reloadEnv struct {
	cpu  map[string]float64 // per container (sensitive groups + batch)
	viol map[string]bool    // per application name
	run  map[string]bool
}

func (e *reloadEnv) Collect() []metrics.Sample {
	var out []metrics.Sample
	for id, cpu := range e.cpu {
		out = append(out, metrics.Sample{VM: id, Values: map[metrics.Metric]float64{
			metrics.MetricCPU:    cpu,
			metrics.MetricMemory: 500,
		}})
	}
	metrics.SortSamples(out)
	return out
}

func (e *reloadEnv) BatchRunning() bool { return true }
func (e *reloadEnv) BatchActive() bool  { return true }

type reloadSig struct {
	env *reloadEnv
	app string
}

func (s reloadSig) QoSViolation() bool     { return s.env.viol[s.app] }
func (s reloadSig) SensitiveRunning() bool { return s.env.run[s.app] }

var (
	_ core.HostEnvironment = (*reloadEnv)(nil)
	_ core.LaneSignals     = reloadSig{}
)

// countingActuator sits between the ledger and the faulty cgroupfs and
// counts the transitions the arbiter actually actuates — the ground truth
// for the no-gap and release-exactly-once invariants, independent of
// whether an individual control-file write degraded under injection.
type countingActuator struct {
	inner   throttle.GradedActuator
	pauses  int
	resumes int
}

func (c *countingActuator) Pause(ids []string) error {
	c.pauses++
	return c.inner.Pause(ids)
}

func (c *countingActuator) Resume(ids []string) error {
	c.resumes++
	return c.inner.Resume(ids)
}

// SetLevel forwards graded quotas uncounted: recovery's quota clear is
// part of a release, not a separate actuation.
func (c *countingActuator) SetLevel(ids []string, level float64) error {
	return c.inner.SetLevel(ids, level)
}

var _ throttle.GradedActuator = (*countingActuator)(nil)

// ReloadChaos is the reload-under-fault suite: a multi-lane host runtime
// over a ledgered actuator and a cgroupfs failing 10% of writes runs
// through randomized lane adds, removes and reconfigurations while lanes
// freeze and thaw the shared pool — interleaved with hard crashes
// (abandon the runtime mid-restriction, replay the ledger). Invariants,
// each doubling as a CI gate:
//
//   - recovery may over-thaw but never over-freezes: ledger replay issues
//     no Pause, and every batch cgroup reads thawed afterwards;
//   - a removal with restricting survivors causes no restriction gap:
//     zero Resume calls, pool still frozen;
//   - removing the last restricting lane releases the departing batch
//     restrictions exactly once, and leaves the ledger clean (the final
//     replay finds nothing to thaw).
func ReloadChaos(seed int64) (*Figure, error) {
	stateDir, err := os.MkdirTemp("", "stayaway-reload-chaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	batch := []string{"batch/b0", "batch/b1"}
	fake := cgroup.NewFakeFS()
	for i, id := range batch {
		fake.AddCgroup(id, 2000+i)
	}
	cfs := chaos.NewFS(fake, chaos.FSConfig{WriteErrProb: 0.10, Seed: seed})
	raw, err := cgroup.NewActuator(cfs, cgroup.ActuatorConfig{
		MaxCPU:       4,
		WriteRetries: 4,
		Sleep:        func(time.Duration) {},
		Kill:         func(int, syscall.Signal) error { return nil },
	})
	if err != nil {
		return nil, err
	}
	counted := &countingActuator{inner: raw}
	ledger, err := resilience.OpenLedger(filepath.Join(stateDir, "ledger.json"))
	if err != nil {
		return nil, err
	}
	la, err := resilience.NewLedgeredActuator(counted, ledger)
	if err != nil {
		return nil, err
	}

	env := &reloadEnv{
		cpu:  map[string]float64{},
		viol: map[string]bool{},
		run:  map[string]bool{},
	}
	for _, id := range batch {
		env.cpu[id] = 100
	}
	ranges := metrics.DefaultRanges(4, 4096, 200, 1000)
	rng := rand.New(rand.NewSource(seed))

	frozen := func(id string) bool {
		c, ok := fake.Contents(id + "/cgroup.freeze")
		return ok && strings.TrimSpace(c) == "1"
	}
	frozenBatch := func() int {
		n := 0
		for _, id := range batch {
			if frozen(id) {
				n++
			}
		}
		return n
	}

	var host *core.HostRuntime
	active := map[string]bool{}
	laneCfg := func(app string) core.Config {
		cfg := core.DefaultConfig("s/"+app, batch, ranges)
		cfg.SensitiveApp = app
		cfg.Seed = rng.Int63()
		return cfg
	}
	addLane := func(app string) error {
		env.cpu["s/"+app] = 150
		env.run[app] = true
		if _, err := host.AddLane(laneCfg(app), reloadSig{env, app}); err != nil {
			return err
		}
		active[app] = true
		return nil
	}
	removeLane := func(app string) error {
		_, err := host.RemoveLane(app)
		delete(active, app)
		delete(env.cpu, "s/"+app)
		delete(env.viol, app)
		delete(env.run, app)
		return err
	}
	rebuild := func(apps []string) error {
		h, err := core.NewHost(env, la)
		if err != nil {
			return err
		}
		host = h
		active = map[string]bool{}
		for _, app := range apps {
			if err := addLane(app); err != nil {
				return err
			}
		}
		return nil
	}
	activeApps := func() []string {
		var out []string
		for app := range active {
			out = append(out, app)
		}
		// Deterministic order for the seeded rng's picks.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	pool := []string{"vlc", "kv", "web", "db"}
	if err := rebuild(pool[:2]); err != nil {
		return nil, err
	}

	var adds, removes, reconfigs, crashes, recoveredThaws int
	var overFreezes, frozenAfterRecover, gapResumes, periodErrs int

	const rounds = 500
	for round := 0; round < rounds; round++ {
		for _, app := range activeApps() {
			if rng.Float64() < 0.15 {
				env.viol[app] = !env.viol[app]
			}
		}
		if _, err := host.Period(); err != nil {
			periodErrs++
		}

		switch {
		case round%40 == 39:
			// Hard crash mid-restriction: the incarnation is abandoned
			// without Release, exactly what SIGKILL leaves behind. Ledger
			// replay must thaw everything and must not freeze anything.
			crashes++
			pausesBefore := counted.pauses
			thawed, rerr := resilience.Recover(ledger, la, batch)
			if rerr != nil {
				periodErrs++
			}
			recoveredThaws += len(thawed)
			if counted.pauses != pausesBefore {
				overFreezes++
			}
			frozenAfterRecover += frozenBatch()
			apps := activeApps()
			for _, app := range apps {
				env.viol[app] = false
			}
			if err := rebuild(apps); err != nil {
				return nil, fmt.Errorf("rebuild after crash %d: %w", crashes, err)
			}
		case round%7 == 3:
			apps := activeApps()
			switch op := rng.Intn(3); {
			case op == 0 && len(apps) < len(pool):
				for _, app := range pool {
					if !active[app] {
						if err := addLane(app); err != nil {
							return nil, fmt.Errorf("round %d add %s: %w", round, app, err)
						}
						adds++
						break
					}
				}
			case op == 1 && len(apps) > 1:
				app := apps[rng.Intn(len(apps))]
				resumesBefore := counted.resumes
				restrictedBefore := frozenBatch()
				if err := removeLane(app); err != nil {
					return nil, fmt.Errorf("round %d remove %s: %w", round, app, err)
				}
				removes++
				// Survivors still restricting? Then removal must not have
				// thawed the pool out from under them.
				if restrictedBefore > 0 && frozenBatch() < restrictedBefore &&
					len(host.Arbiter().Restricting(batch[0])) > 0 {
					gapResumes++
				}
				_ = resumesBefore
			case op == 2 && len(apps) > 0:
				app := apps[rng.Intn(len(apps))]
				cfg := laneCfg(app)
				cfg.Throttle.MaxBeta = 0.3 + 0.4*rng.Float64()
				if _, _, err := host.ReconfigureLane(cfg, reloadSig{env, app}); err != nil {
					return nil, fmt.Errorf("round %d reconfigure %s: %w", round, app, err)
				}
				reconfigs++
			}
		}
	}

	// Deterministic tail: with every lane violating and the pool frozen,
	// drain the lanes one by one. No restriction gap while survivors
	// remain; exactly one release when the last one leaves; clean ledger.
	for len(active) < 2 {
		for _, app := range pool {
			if !active[app] {
				if err := addLane(app); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	for _, app := range activeApps() {
		env.viol[app] = true
	}
	for i := 0; i < 3; i++ {
		if _, err := host.Period(); err != nil {
			return nil, fmt.Errorf("tail period: %w", err)
		}
	}
	var tailProblems []string
	if frozenBatch() != len(batch) {
		tailProblems = append(tailProblems,
			fmt.Sprintf("tail setup: %d/%d batch cgroups frozen under universal violation", frozenBatch(), len(batch)))
	}
	resumesBefore := counted.resumes
	apps := activeApps()
	for i, app := range apps {
		if _, err := host.RemoveLane(app); err != nil {
			return nil, fmt.Errorf("tail remove %s: %w", app, err)
		}
		last := i == len(apps)-1
		if !last {
			if counted.resumes != resumesBefore {
				tailProblems = append(tailProblems,
					fmt.Sprintf("restriction gap: removing %s with restricting survivors caused a thaw", app))
			}
			if frozenBatch() != len(batch) {
				tailProblems = append(tailProblems,
					fmt.Sprintf("restriction gap: pool partially thawed after removing %s", app))
			}
		}
	}
	if got := counted.resumes - resumesBefore; got != 1 {
		tailProblems = append(tailProblems,
			fmt.Sprintf("departing restrictions released %d times, want exactly once", got))
	}
	if frozenBatch() != 0 {
		tailProblems = append(tailProblems,
			fmt.Sprintf("%d batch cgroups frozen after full drain", frozenBatch()))
	}
	// No extraIDs here: only genuinely outstanding ledger entries may
	// surface, and after a fully-drained exit there must be none.
	finalThawed, err := resilience.Recover(ledger, la, nil)
	if err != nil {
		return nil, fmt.Errorf("final ledger replay: %w", err)
	}

	_, writes, _, writeErrs, _ := cfs.Stats()

	var problems []string
	problems = append(problems, tailProblems...)
	if writeErrs == 0 {
		problems = append(problems, "no write faults injected (probabilistic injection broken)")
	}
	if crashes == 0 || adds == 0 || removes == 0 || reconfigs == 0 {
		problems = append(problems, fmt.Sprintf(
			"suite did not exercise the lifecycle (crashes %d, adds %d, removes %d, reconfigs %d)",
			crashes, adds, removes, reconfigs))
	}
	if overFreezes != 0 {
		problems = append(problems, fmt.Sprintf("%d recoveries issued a Pause (over-freeze is forbidden)", overFreezes))
	}
	if frozenAfterRecover != 0 {
		problems = append(problems, fmt.Sprintf("%d batch cgroups left frozen after ledger replay", frozenAfterRecover))
	}
	if gapResumes != 0 {
		problems = append(problems, fmt.Sprintf("%d removals thawed the pool out from under restricting survivors", gapResumes))
	}
	if len(finalThawed) != 0 {
		problems = append(problems, fmt.Sprintf(
			"final ledger replay thawed %v: a release went unrecorded", finalThawed))
	}
	if periodErrs != 0 {
		problems = append(problems, fmt.Sprintf("%d period/recovery errors surfaced", periodErrs))
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("reload chaos suite failed: %s", strings.Join(problems, "; "))
	}

	var b strings.Builder
	b.WriteString("Reload chaos — lane lifecycle under injected faults and crashes\n\n")
	fmt.Fprintf(&b, "  %d rounds: %d adds, %d removes, %d reconfigurations, %d hard crashes\n",
		rounds, adds, removes, reconfigs, crashes)
	fmt.Fprintf(&b, "  cgroupfs: %d writes, %d injected faults (%.1f%%)\n",
		writes, writeErrs, 100*float64(writeErrs)/float64(max(writes, 1)))
	fmt.Fprintf(&b, "  actuations: %d pauses, %d resumes; ledger replays thawed %d restrictions\n",
		counted.pauses, counted.resumes, recoveredThaws)
	fmt.Fprintf(&b, "  over-freezes during recovery: %d; restriction gaps: %d; final replay thawed: %d\n",
		overFreezes, gapResumes, len(finalThawed))
	b.WriteString("\nall invariants held: over-thaw only, no restriction gap, release exactly once, clean ledger\n")
	return &Figure{
		ID:    "reload-chaos",
		Title: "Reload-under-fault suite",
		Text:  b.String(),
		Summary: map[string]float64{
			"adds":                float64(adds),
			"removes":             float64(removes),
			"reconfigs":           float64(reconfigs),
			"crashes":             float64(crashes),
			"injected_faults":     float64(writeErrs),
			"pauses":              float64(counted.pauses),
			"resumes":             float64(counted.resumes),
			"recovered_thaws":     float64(recoveredThaws),
			"over_freezes":        float64(overFreezes),
			"restriction_gaps":    float64(gapResumes),
			"final_replay_thawed": float64(len(finalThawed)),
		},
	}, nil
}
