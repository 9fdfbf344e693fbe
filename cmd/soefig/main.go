// Command soefig regenerates the paper's tables and figures.
//
// Usage:
//
//	soefig -exp table2|table3|fig3|fig5|fig6|fig7|fig8|example1|timeshare|all
//	       [-scale tiny|quick|paper] [-v] [-html out.html]
//	       [-cache-dir dir] [-metrics] [-workers n]
//
// Analytical experiments (table2, fig3) are instant; simulation
// experiments run the two-thread SOE matrix and take seconds (tiny),
// minutes (quick) or tens of minutes (paper) depending on -scale.
// With -html the full reproduction is rendered as a standalone HTML
// document with SVG charts instead of text output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"soemt/internal/cli"
	"soemt/internal/experiments"
	"soemt/internal/sim"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table2, table3, fig3, fig5, fig6, fig7, fig8, example1, timeshare, all)")
		scale   = flag.String("scale", "quick", "simulation scale: tiny, quick, paper")
		verbose = flag.Bool("v", false, "print per-run progress")
		html    = flag.String("html", "", "write a standalone HTML report with SVG charts to this file")
		csvPath = flag.String("csv", "", "write the full evaluation matrix as tidy CSV to this file")
		cache   = flag.String("cache-dir", "", "persistent result cache directory (content-addressed; see DESIGN.md)")
		metrics = flag.Bool("metrics", false, "print run/cache metrics to stderr on exit")
		workers = flag.Int("workers", 0, "concurrent simulations across all experiments (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget per simulation, e.g. 90s (0 = unlimited); an exceeded run fails with a deadline error")
		beat    = flag.Duration("heartbeat", 0, "print a metrics heartbeat line to stderr at this interval during long runs, e.g. 30s (0 = off)")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	switch *scale {
	case "tiny":
		opts.Scale = sim.Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}
		opts.SameOffset = 50_000
	case "quick":
		// defaults
	case "paper":
		opts = experiments.PaperOptions()
	default:
		fmt.Fprintf(os.Stderr, "soefig: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	opts.Watchdog.Timeout = *timeout

	r := experiments.NewRunner(opts)
	r.Workers = *workers
	if *verbose {
		r.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *cache != "" {
		if err := r.SetCacheDir(*cache); err != nil {
			fmt.Fprintf(os.Stderr, "soefig: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics {
		// sim_time sums the simulations' own times; elapsed is this
		// invocation's wall time, shorter when simulations overlap.
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "soefig: metrics: %s elapsed=%s\n", r.Metrics(), time.Since(start).Round(time.Millisecond))
		}()
	}

	// SIGINT/SIGTERM cancel the matrix between execution slices. Pairs
	// already simulated stay in the cache (and are flushed as partial
	// output where the format allows it); a rerun over the same
	// -cache-dir resumes from them. A second signal kills immediately.
	ctx, stop := cli.SignalContext()
	defer stop()
	stopBeat := cli.StartHeartbeat(ctx, "soefig", *beat, func() string {
		return r.Metrics().String()
	})
	defer stopBeat()
	cli.NoteResume("soefig", r.Cache())
	defer func() { cli.ClearInterrupted("soefig", r.Cache()) }() // skipped by os.Exit on failure paths
	exitErr := func(err error) {
		if cli.Interrupted(ctx, err) {
			cli.MarkInterrupted("soefig", r.Cache(), "interrupted by signal")
			fmt.Fprintln(os.Stderr, "soefig: interrupted; completed simulations are cached — rerun with the same -cache-dir to resume")
			os.Exit(cli.ExitInterrupted)
		}
		fmt.Fprintf(os.Stderr, "soefig: %v\n", err)
		os.Exit(1)
	}

	if *html != "" {
		if err := writeHTMLReport(ctx, *html, opts, r); err != nil {
			if cli.Interrupted(ctx, err) {
				exitErr(err)
			}
			fmt.Fprintf(os.Stderr, "soefig: html report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *html)
		return
	}
	if *csvPath != "" {
		runs, err := r.RunAllContext(ctx)
		if err != nil && !cli.Interrupted(ctx, err) {
			fmt.Fprintf(os.Stderr, "soefig: %v\n", err)
			os.Exit(1)
		}
		interrupted := err != nil
		done := runs[:0:0]
		for _, pr := range runs {
			if pr != nil {
				done = append(done, pr)
			}
		}
		if interrupted && len(done) == 0 {
			exitErr(err)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soefig: %v\n", err)
			os.Exit(1)
		}
		if err := experiments.WriteCSV(f, done); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "soefig: %v\n", err)
			os.Exit(1)
		}
		if interrupted {
			fmt.Fprintf(f, "# interrupted: %d of %d pairs completed; rerun with the same -cache-dir to finish\n",
				len(done), len(runs))
		}
		f.Close()
		if interrupted {
			fmt.Fprintf(os.Stderr, "soefig: interrupted; wrote partial matrix (%d/%d pairs) to %s\n",
				len(done), len(runs), *csvPath)
			cli.MarkInterrupted("soefig", r.Cache(), "interrupted by signal (partial CSV flushed)")
			os.Exit(cli.ExitInterrupted)
		}
		fmt.Printf("wrote %s\n", *csvPath)
		return
	}

	w := os.Stdout
	run := func(name string) error {
		switch name {
		case "table2":
			return experiments.ExpTable2(w)
		case "table3":
			return experiments.ExpTable3(w, opts)
		case "fig3":
			return experiments.ExpFig3(w)
		case "example1":
			return experiments.ExpExample1Context(ctx, w, r)
		case "fig5":
			_, err := experiments.ExpFig5Context(ctx, w, r)
			return err
		case "fig6":
			runs, err := r.RunAllContext(ctx)
			if err != nil {
				return err
			}
			_, err = experiments.ExpFig6(w, runs)
			return err
		case "fig7":
			runs, err := r.RunAllContext(ctx)
			if err != nil {
				return err
			}
			_, err = experiments.ExpFig7(w, runs)
			return err
		case "fig8":
			runs, err := r.RunAllContext(ctx)
			if err != nil {
				return err
			}
			_, err = experiments.ExpFig8(w, runs)
			return err
		case "timeshare":
			_, err := experiments.ExpTimeShareContext(ctx, w, r)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table3", "table2", "fig3", "example1", "fig5",
			"fig6", "fig7", "fig8", "timeshare"}
	}
	for i, n := range names {
		if i > 0 {
			fmt.Fprintln(w, "\n"+strings.Repeat("=", 78)+"\n")
		}
		if err := run(n); err != nil {
			if cli.Interrupted(ctx, err) {
				exitErr(err)
			}
			fmt.Fprintf(os.Stderr, "soefig: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}
