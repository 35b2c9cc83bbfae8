// Command stayawayreg serves the fleet template registry: a small HTTP
// control plane through which Stay-Away hosts share learned state-space
// maps (§6 templates, fleet-wide). Daemons PUT their exported templates,
// the registry merges them into a per-application consensus map (Procrustes
// alignment + weighted state dedup), and freshly started hosts GET the
// consensus to skip the learning phase.
//
// Usage:
//
//	stayawayreg -addr :8723 [-data-dir /var/lib/stayaway] [-merge-eps 0.05]
//	            [-shards 4] [-fleet-key-file secret] [-v]
//
// With -data-dir the store persists across restarts (one JSON file per
// (application, schema) key, written atomically); without it the registry
// is in-memory. -shards splits the store by sensitive-app key (the count
// is pinned in the data dir on first start). Every accepted merge is
// published on the SSE stream at /v1/events so subscribed hosts learn
// about fleet violations within one control period; /metrics serves
// Prometheus text metrics. With a fleet key configured, all template and
// status routes require HMAC-signed requests. The server runs until
// SIGINT/SIGTERM and drains in-flight requests on shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/stream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stayawayreg:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8723", "listen address")
	dataDir := flag.String("data-dir", "", "persist templates here (empty = in-memory)")
	mergeEps := flag.Float64("merge-eps", registry.DefaultMergeEpsilon, "state-dedup radius when merging host maps")
	shards := flag.Int("shards", 1, "split the store into N shards by sensitive-app key")
	fleetKey := flag.String("fleet-key", "", "shared fleet key; when set, requests must be HMAC-signed")
	fleetKeyFile := flag.String("fleet-key-file", "", "file holding the shared fleet key (preferred over -fleet-key: argv leaks via ps)")
	heartbeat := flag.Duration("stream-heartbeat", 15*time.Second, "idle event-stream heartbeat cadence")
	verbose := flag.Bool("v", false, "log every request outcome")
	flag.Parse()

	key, err := fleet.ResolveKey(*fleetKey, *fleetKeyFile)
	if err != nil {
		return err
	}

	// The hub epoch must differ across restarts so clients resuming with a
	// stale Last-Event-ID get a reset instead of a silent gap.
	hub := stream.NewHub(stream.HubConfig{Epoch: time.Now().UnixNano()})
	defer hub.Close()
	metrics := stream.NewMetricSet()

	reg, err := registry.Open(registry.Config{
		Dir:          *dataDir,
		MergeEpsilon: *mergeEps,
		OnPut:        fleet.PublishHook(hub),
		Shards:       *shards,
	})
	if err != nil {
		return err
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Printf("stayawayreg: "+format+"\n", args...)
		}
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Registry:        reg,
		Logf:            logf,
		Hub:             hub,
		Metrics:         metrics,
		Key:             key,
		StreamHeartbeat: *heartbeat,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	secured := "open"
	if len(key) > 0 {
		secured = "signed requests required"
	}
	fmt.Printf("stayawayreg: listening on %s (%d templates loaded, %d shards, %s)\n",
		*addr, reg.Len(), reg.Shards(), secured)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("stayawayreg: %v, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
