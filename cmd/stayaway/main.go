// Command stayaway runs the Stay-Away middleware against a simulated host:
// pick a latency-sensitive application and a set of batch co-runners, and
// watch the Mapping → Prediction → Action loop operate period by period.
//
// Usage:
//
//	stayaway [-sensitive APP] [-batch LIST] [-ticks N] [-seed N]
//	         [-observe] [-no-stayaway] [-template-in FILE]
//	         [-template-out FILE] [-registry URL] [-app NAME]
//	         [-fleet-key KEY | -fleet-key-file FILE] [-v]
//
//	-sensitive   vlc | web-cpu | web-mem | web-mix        (default vlc)
//	-batch       comma list of cpubomb, memorybomb, twitter, soplex,
//	             transcode                                 (default cpubomb)
//	-observe     map and predict but never throttle (observe-only)
//	-no-stayaway run the co-location completely unprotected
//	-template-in seed the runtime with a previously exported template
//	-template-out export the learned map on exit
//	-registry    fleet registry URL: pull the consensus template for
//	             -app before the run, push the learned map after it
//	-app         fleet-wide application name              (default: -sensitive)
//	-fleet-key   shared fleet key for a signed registry (-fleet-key-file
//	             reads it from a file and wins over the literal)
//	-v           print every period's event
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fsatomic"
	"repro/internal/sim"
	"repro/internal/statespace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stayaway:", err)
		os.Exit(1)
	}
}

func sensitiveFactory(name string) (func(rng *rand.Rand) sim.QoSApp, error) {
	switch name {
	case "vlc":
		return func(rng *rand.Rand) sim.QoSApp {
			return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
		}, nil
	case "web-cpu", "web-mem", "web-mix":
		kind := map[string]apps.WorkloadKind{
			"web-cpu": apps.CPUIntensive,
			"web-mem": apps.MemoryIntensive,
			"web-mix": apps.Mixed,
		}[name]
		return func(rng *rand.Rand) sim.QoSApp {
			return apps.NewWebservice(apps.DefaultWebserviceConfig(kind), rng)
		}, nil
	case "webkv-cpu", "webkv-mem", "webkv-mix":
		// The request-driven Webservice: demands derive from executing
		// requests against a real Memcached layer instead of the analytic
		// model.
		kind := map[string]apps.WorkloadKind{
			"webkv-cpu": apps.CPUIntensive,
			"webkv-mem": apps.MemoryIntensive,
			"webkv-mix": apps.Mixed,
		}[name]
		return func(rng *rand.Rand) sim.QoSApp {
			w, err := apps.NewRequestWebservice(apps.DefaultRequestWebserviceConfig(kind), rng)
			if err != nil {
				panic(err) // defaults are always valid
			}
			return w
		}, nil
	default:
		return nil, fmt.Errorf("unknown sensitive app %q", name)
	}
}

func batchFactory(name string) (func(rng *rand.Rand) sim.App, error) {
	switch name {
	case "cpubomb":
		return func(*rand.Rand) sim.App { return apps.NewCPUBomb(apps.DefaultCPUBombConfig()) }, nil
	case "memorybomb":
		return func(rng *rand.Rand) sim.App { return apps.NewMemoryBomb(apps.DefaultMemoryBombConfig(), rng) }, nil
	case "twitter":
		return func(rng *rand.Rand) sim.App {
			cfg := apps.DefaultTwitterConfig()
			cfg.TotalWork = 0
			return apps.NewTwitterAnalysis(cfg, rng)
		}, nil
	case "soplex":
		return func(rng *rand.Rand) sim.App {
			cfg := apps.DefaultSoplexConfig()
			cfg.TotalWork = 0
			return apps.NewSoplex(cfg, rng)
		}, nil
	case "transcode":
		return func(rng *rand.Rand) sim.App {
			return apps.NewVLCTranscode(apps.DefaultVLCTranscodeConfig(), rng)
		}, nil
	default:
		return nil, fmt.Errorf("unknown batch app %q", name)
	}
}

func run() error {
	sensitiveName := flag.String("sensitive", "vlc", "sensitive application")
	batchList := flag.String("batch", "cpubomb", "comma-separated batch applications")
	ticks := flag.Int("ticks", 300, "simulation length in monitoring periods")
	seed := flag.Int64("seed", 1, "random seed")
	observe := flag.Bool("observe", false, "observe-only (no throttling)")
	noStayAway := flag.Bool("no-stayaway", false, "run unprotected (no runtime at all)")
	templateIn := flag.String("template-in", "", "template JSON to seed the runtime with")
	templateOut := flag.String("template-out", "", "write the learned template JSON here")
	csvOut := flag.String("csv", "", "write per-tick run records as CSV here")
	registryURL := flag.String("registry", "", "fleet registry base URL (empty = standalone)")
	appName := flag.String("app", "", "fleet-wide application name (default: -sensitive)")
	fleetKey := flag.String("fleet-key", "", "shared fleet key; when set, registry requests are HMAC-signed")
	fleetKeyFile := flag.String("fleet-key-file", "", "file holding the shared fleet key (preferred over -fleet-key: argv leaks via ps)")
	verbose := flag.Bool("v", false, "print every period event")
	flag.Parse()
	if *appName == "" {
		*appName = *sensitiveName
	}

	sensitive, err := sensitiveFactory(*sensitiveName)
	if err != nil {
		return err
	}
	var placements []experiments.Placement
	for i, name := range strings.Split(*batchList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := batchFactory(name)
		if err != nil {
			return err
		}
		placements = append(placements, experiments.Placement{
			ID:        fmt.Sprintf("%s-%d", name, i),
			StartTick: 20,
			App:       f,
		})
	}

	var tpl *statespace.Template
	if *templateIn != "" {
		f, err := os.Open(*templateIn)
		if err != nil {
			return err
		}
		tpl, err = statespace.ReadTemplate(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded template for %q: %d states\n", tpl.SensitiveApp, len(tpl.States))
	}

	// Fleet: pull the consensus template unless one was given explicitly;
	// a cold or unreachable registry falls back to learning from scratch.
	var syncer *fleet.Syncer
	if *registryURL != "" {
		key, err := fleet.ResolveKey(*fleetKey, *fleetKeyFile)
		if err != nil {
			return err
		}
		client, err := fleet.NewClient(fleet.ClientConfig{BaseURL: *registryURL, Key: key})
		if err != nil {
			return err
		}
		host, err := os.Hostname()
		if err != nil {
			host = "stayaway-cli"
		}
		syncer = fleet.NewSyncer(client, host, *appName)
		if tpl == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			pulled, rev, err := syncer.Bootstrap(ctx)
			cancel()
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "stayaway: registry bootstrap failed, starting cold: %v\n", err)
			case pulled == nil:
				fmt.Printf("registry has no template for %q yet, learning from scratch\n", *appName)
			default:
				tpl = pulled
				fmt.Printf("pulled fleet template for %q: revision %d, %d states\n",
					*appName, rev, len(tpl.States))
			}
		}
	}

	res, err := experiments.Run(experiments.Scenario{
		Name:           "stayaway-cli",
		SensitiveID:    "sensitive",
		Sensitive:      sensitive,
		Batch:          placements,
		Ticks:          *ticks,
		Seed:           *seed,
		StayAway:       !*noStayAway,
		DisableActions: *observe,
		Template:       tpl,
	})
	if err != nil {
		return err
	}

	if *verbose {
		for _, ev := range res.Events {
			fmt.Println(ev)
		}
	}

	vs := experiments.Violations(res.Records)
	fmt.Printf("\n%s + [%s], %d periods (seed %d)\n", *sensitiveName, *batchList, *ticks, *seed)
	fmt.Printf("QoS violations: %d/%d (%.1f%%)\n", vs.Violations, vs.Ticks, 100*vs.Rate)
	fmt.Printf("mean gained utilization: %.1f%%\n", 100*experiments.Mean(experiments.GainSeries(res.Records)))
	fmt.Printf("mean machine utilization: %.1f%%\n", 100*res.AvgUtilization)
	if res.Runtime != nil {
		fmt.Println(res.Report)
		threshold := 1.0
		fmt.Println(experiments.RenderSeries(experiments.ChartOptions{
			Title: "normalized QoS (threshold at 1.0)",
			HLine: &threshold, YMin: 0, YMax: 1.3, Height: 10,
		}, experiments.QoSSeries(res.Records)))
	}

	if *csvOut != "" {
		err := fsatomic.WriteFileFunc(*csvOut, 0o644, func(w io.Writer) error {
			return experiments.WriteRunCSV(w, res.Records)
		})
		if err != nil {
			return err
		}
		fmt.Printf("run records written to %s\n", *csvOut)
	}

	if *templateOut != "" && res.Runtime != nil {
		err := fsatomic.WriteFileFunc(*templateOut, 0o644, func(w io.Writer) error {
			_, err := res.Runtime.ExportTemplate(*sensitiveName).WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("template written to %s\n", *templateOut)
	}

	// Contribute what this run learned back to the fleet.
	if syncer != nil && res.Runtime != nil {
		if err := syncer.PushTemplate(res.Runtime.ExportTemplate(*appName)); err != nil {
			fmt.Fprintln(os.Stderr, "stayaway: registry push failed:", err)
		} else {
			fmt.Printf("pushed learned template to the registry (revision %d)\n", syncer.Stats().Revision)
		}
	}
	return nil
}
