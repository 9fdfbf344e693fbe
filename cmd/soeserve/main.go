// Command soeserve exposes the SOE experiment engine as an HTTP
// service: bounded admission with backpressure, request coalescing on
// top of the content-addressed result cache, one pool of -workers
// simulation slots shared by every job, and graceful drain on
// SIGINT/SIGTERM.
//
//	soeserve -addr :8080 -cache-dir /var/cache/soemt
//
//	curl -s localhost:8080/v1/run -d '{"pair":"gcc:eon","f":0.5,"scale":"tiny"}'
//	curl -s localhost:8080/v1/sweep -d '{"pairs":["gcc:eon"],"scale":"tiny"}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/metrics
//
// See DESIGN.md §11 for the architecture and drain semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"soemt/internal/cli"
	"soemt/internal/cluster"
	"soemt/internal/model"
	"soemt/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queueDepth   = flag.Int("queue", 64, "max accepted-but-unfinished jobs; beyond this, submissions get 429")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir     = flag.String("cache-dir", "", "persistent result cache directory (content-addressed; see DESIGN.md)")
		traceCap     = flag.Int("trace-cap", 1<<16, "event-tracer ring capacity for trace-requesting jobs")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max time to finish accepted jobs on shutdown before cancelling them")
		tier         = flag.String("tier", "auto", "default serving tier when requests leave it unset: fast (calibrated model, synchronous), exact (cycle-accurate job), or auto (fast answer + exact refinement)")
		calibration  = flag.String("calibration", "", "calibration table for the fast tier (soesim -calibrate output; default: profile-derived fit with wide error bars)")
		jobRetention = flag.Duration("job-retention", time.Hour, "how long terminal jobs stay queryable on /v1/jobs before eviction (410 Gone); negative keeps them until the size bound")
		maxJobs      = flag.Int("max-jobs", 1024, "max retained terminal jobs regardless of age")
		maxBody      = flag.Int64("max-body", 1<<20, "max request body bytes (413 beyond)")

		nodeName      = flag.String("node-name", "", "this node's name, prefixed onto job ids in cluster deployments")
		self          = flag.String("self", "", "this node's base URL in -peers (required with -peers)")
		peers         = flag.String("peers", "", "comma-separated base URLs of every cluster node including this one; enables the peer cache tier (DESIGN.md §13)")
		peerTimeout   = flag.Duration("peer-timeout", 2*time.Second, "max time for one peer cache fetch before degrading to a local run")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "peer /healthz probe interval")
		timeouts      = cli.DefaultHTTPTimeouts()
	)
	timeouts.Flags(flag.CommandLine)
	flag.Parse()

	var cal *model.Calibration
	if *calibration != "" {
		var err error
		if cal, err = model.LoadCalibration(*calibration); err != nil {
			fatal(err)
		}
		log.Printf("soeserve: fast tier calibrated from %s (%s, bars ±%.1f%% IPC / ±%.2f fairness)",
			*calibration, cal.Source, cal.ErrIPCPc, cal.ErrFairness)
	}
	srv, err := serve.NewServer(serve.Config{
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		CacheDir:        *cacheDir,
		TraceCap:        *traceCap,
		DefaultTier:     *tier,
		Calibration:     cal,
		JobRetention:    *jobRetention,
		MaxTerminalJobs: *maxJobs,
		NodeName:        *nodeName,
		MaxBodyBytes:    *maxBody,
		Logf:            log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	cli.NoteResume("soeserve", srv.Cache())

	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			fatal(errors.New("-peers requires -self (this node's URL in the list)"))
		}
		cl, err = cluster.New(cluster.Config{
			Self:          *self,
			Nodes:         splitPeers(*peers),
			ProbeInterval: *probeInterval,
			Registry:      srv.Observability(),
			Logf:          log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		srv.SetPeers(cl, *peerTimeout)
		log.Printf("soeserve: cluster member %s of %s (peer fill on, timeout %s)", *self, *peers, *peerTimeout)
	}

	// First SIGINT/SIGTERM starts the drain; SignalContext restores the
	// default disposition immediately, so a second signal kills the
	// process if the drain itself wedges.
	ctx, stop := cli.SignalContext()
	defer stop()

	if cl != nil {
		cl.StartProbes(ctx)
		defer cl.StopProbes()
	}

	hs := timeouts.Server(*addr, srv.Handler())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("soeserve: signal received; draining (deadline %s, signal again to kill)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			log.Printf("soeserve: drain deadline hit; in-flight jobs were interrupted and checkpointed: %v", err)
		} else {
			log.Printf("soeserve: drained cleanly, no accepted job lost")
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		hs.Shutdown(sctx)
	}()

	log.Printf("soeserve: listening on %s (queue=%d workers=%d cache=%q)",
		*addr, *queueDepth, *workers, *cacheDir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
}

func splitPeers(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soeserve:", err)
	os.Exit(1)
}
