// Command bench is the Stay-Away benchmark: four workloads measured end
// to end and layer by layer, from outside the packages they exercise.
// See README.md in this directory for the glossary and how to read the
// numbers.
//
//	go run -C bench . --workload host-steady --seed 42 --seconds 12 --trace 0
//	go run -C bench .                       # every workload, both passes
//	go run -C bench . -runs 5 -out a.json   # a result set for -compare
//	go run -C bench . -compare a.json b.json
//	go run -C bench . -stability 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload for about seconds of measuring. notes
// are human-readable lines (sample counts, hashes) printed above the
// result; they are not metrics.
type workloadFunc func(ctx context.Context, env *benchEnv, seed int64, seconds int, traced bool) (res *result, notes []string, err error)

// benchEnv is where the benchmark may read and write: the checkout it
// runs in, and the scratch directory inside it.
type benchEnv struct {
	root  string // the checkout: the directory holding BENCHMARK.json
	build string // <root>/.bench_build: binaries, temp dirs, span files
}

func workloads() (names []string, byName map[string]workloadFunc) {
	byName = map[string]workloadFunc{}
	for _, spec := range inprocSpecs() {
		spec := spec
		names = append(names, spec.name)
		byName[spec.name] = func(ctx context.Context, env *benchEnv, seed int64, seconds int, traced bool) (*result, []string, error) {
			return runInproc(ctx, env, spec, seed, seconds, traced)
		}
	}
	names = append(names, daemonWorkload)
	byName[daemonWorkload] = runDaemonWorkload
	return names, byName
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
			return "", fmt.Errorf("%s holds BENCHMARK.json but not the repro module: nothing to measure", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "run one workload and print its result object as the last line; empty runs all four, both passes")
		seed      = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
		compare   = flag.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
		stability = flag.Int("stability", 0, "run the whole benchmark N times in two sets and print medians and quartiles against the bounds")
		runs      = flag.Int("runs", 1, "with no -workload: how many times to run the whole benchmark (seeds seed, seed+1, …)")
		out       = flag.String("out", "", "with no -workload: write the result set here, for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := &benchEnv{root: root, build: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(env.build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be 1..60")
		return 2
	}

	// SIGINT/SIGTERM cancel the run; every workload returns through its
	// defers (which reap the daemon child), and the exit status is
	// non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	names, byName := workloads()
	switch {
	case *stability > 0:
		return runStability(ctx, env, names, byName, *stability, *seed, *seconds)
	case *workload != "":
		run, ok := byName[*workload]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, names)
			return 2
		}
		res, notes, err := run(ctx, env, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		printResult(os.Stdout, *workload, *trace != 0, res, notes)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	default:
		set, code := runAll(ctx, os.Stdout, env, names, byName, *runs, *seed, *seconds, true)
		if code == 0 && *out != "" {
			if err := set.write(*out); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		return code
	}
}

// printResult prints every metric by name with its unit and direction.
func printResult(w io.Writer, workload string, traced bool, res *result, notes []string) {
	pass := "end-to-end, tracing off"
	if traced {
		pass = "per-layer, traced pass"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d, correct %v\n", workload, pass, res.Attempted, res.Failed, res.Correct)
	for _, n := range notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "   %-38s %14.6g %-8s %s\n", k, m.Value, m.Unit, direction(k))
	}
}
