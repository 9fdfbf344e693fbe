package experiments

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soemt/internal/sim"
)

// countingRunner returns a runner whose simulations are a stub that
// sleeps for hold, tracks how many stub runs overlap, and answers with
// onSpec (fakeResult when nil).
func countingRunner(workers int, hold time.Duration, onSpec func(sim.Spec) (*sim.Result, error)) (*Runner, *atomic.Int64) {
	r := NewRunner(testOptions())
	r.Workers = workers
	var cur, peak atomic.Int64
	r.Cache().SetRunFunc(func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(hold)
		if onSpec != nil {
			return onSpec(spec)
		}
		return fakeResult(float64(len(spec.Threads))), nil
	})
	return r, &peak
}

// entryPoints are the experiment calls that fan simulations out over
// a runner's pool.
var entryPoints = []struct {
	name string
	run  func(context.Context, *Runner) error
}{
	{"RunPairContext", func(ctx context.Context, r *Runner) error {
		_, err := r.RunPairContext(ctx, Pair{"swim", "gzip"})
		return err
	}},
	{"ExpExample1Context", func(ctx context.Context, r *Runner) error {
		return ExpExample1Context(ctx, io.Discard, r)
	}},
	{"RunAllContext", func(ctx context.Context, r *Runner) error {
		_, err := r.RunAllContext(ctx)
		return err
	}},
	{"ExpTimeShareContext", func(ctx context.Context, r *Runner) error {
		_, err := ExpTimeShareContext(ctx, io.Discard, r)
		return err
	}},
}

// runConcurrently runs every entry point at once on r and fails the
// test on an error or if they do not all finish within limit.
func runConcurrently(t *testing.T, r *Runner, limit time.Duration) {
	t.Helper()
	errs := make(chan error, len(entryPoints))
	var wg sync.WaitGroup
	for _, ep := range entryPoints {
		wg.Add(1)
		go func(name string, run func(context.Context, *Runner) error) {
			defer wg.Done()
			if err := run(context.Background(), r); err != nil {
				errs <- errors.New(name + ": " + err.Error())
			}
		}(ep.name, ep.run)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("entry points did not finish within %v (pool deadlock?)", limit)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolBoundsConcurrentSimulations runs every fan-out entry point
// at once on one runner: however the experiments overlap, no more than
// Workers simulations may run at a time, and the fan-out must actually
// use the width it has.
func TestPoolBoundsConcurrentSimulations(t *testing.T) {
	for _, workers := range []int{2, 3} {
		r, peak := countingRunner(workers, 2*time.Millisecond, nil)
		runConcurrently(t, r, time.Minute)
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("Workers=%d: %d simulations ran at once", workers, p)
		} else if p < 2 {
			t.Errorf("Workers=%d: simulations never overlapped (peak %d)", workers, p)
		}
		if a := r.Observability().Gauge("pool.active").Load(); a != 0 {
			t.Errorf("Workers=%d: pool.active = %d after the runs, want 0", workers, a)
		}
	}
}

// TestPoolWorkersOneSharedReferencesNoDeadlock runs every entry point
// at once with a single pool slot. The pairs share single-thread
// references (gcc, eon, swim, gzip appear in several pairs), so some
// calls wait on another call's in-flight simulation; waiters hold no
// slot, so the pool cannot deadlock.
func TestPoolWorkersOneSharedReferencesNoDeadlock(t *testing.T) {
	r, peak := countingRunner(1, time.Millisecond, nil)
	runConcurrently(t, r, time.Minute)
	if p := peak.Load(); p != 1 {
		t.Fatalf("Workers=1: peak concurrency %d", p)
	}
}

// TestFanOutEntryPointsStopOnFirstError extends RunAll's stop-on-first-
// error contract to every fan-out entry point: with one pool slot, the
// first failing pair simulation is the last one to start.
func TestFanOutEntryPointsStopOnFirstError(t *testing.T) {
	boom := errors.New("injected simulation failure")
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			var pairRuns atomic.Uint64
			r, _ := countingRunner(1, 0, func(spec sim.Spec) (*sim.Result, error) {
				if len(spec.Threads) == 1 {
					return fakeResult(1), nil
				}
				pairRuns.Add(1)
				return nil, boom
			})
			if err := ep.run(context.Background(), r); !errors.Is(err, boom) {
				t.Fatalf("error = %v, want the injected failure", err)
			}
			if n := pairRuns.Load(); n != 1 {
				t.Fatalf("started %d pair simulations, want 1: dispatch continued after the first error", n)
			}
		})
	}
}

// TestFanOutEntryPointsPropagatePanic extends RunAll's panic contract
// to every fan-out entry point: a panicking simulation surfaces as an
// error naming the panic, without hanging the pool.
func TestFanOutEntryPointsPropagatePanic(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			r, _ := countingRunner(2, 0, func(spec sim.Spec) (*sim.Result, error) {
				if len(spec.Threads) == 2 {
					panic("boom")
				}
				return fakeResult(1), nil
			})
			done := make(chan error, 1)
			go func() { done <- ep.run(context.Background(), r) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("error = %v, want the panic named", err)
				}
			case <-time.After(time.Minute):
				t.Fatal("panicking simulation hung the pool")
			}
			if a := r.Observability().Gauge("pool.active").Load(); a != 0 {
				t.Fatalf("pool.active = %d after the panic, want 0", a)
			}
		})
	}
}

// TestPoolCreatedLazily pins that constructing and configuring a
// runner does no pool work: Workers set after NewRunner still sizes
// the pool.
func TestPoolCreatedLazily(t *testing.T) {
	r := NewRunner(testOptions())
	if err := r.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if r.cache.sims != nil {
		t.Fatal("pool created before the first simulation")
	}
	r.Workers = 3
	r.Cache().SetRunFunc(func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
		return fakeResult(1), nil
	})
	if _, err := r.STRef("gcc"); err != nil {
		t.Fatal(err)
	}
	if got := cap(r.cache.sims.slots); got != 3 {
		t.Fatalf("pool width %d, want the Workers value set before the first run (3)", got)
	}
}
