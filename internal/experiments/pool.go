package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"soemt/internal/obs"
	"soemt/internal/sim"
)

// The simulation pool (DESIGN.md §7). Every fresh simulation a Cache
// runs holds one of Cache.Workers slots while it runs, whoever asked
// for it: a Runner experiment, RunSpecContext, or RunSpecFresh. Only a
// singleflight leader that missed every cache layer takes a slot, at
// the moment it starts simulating: cache hits and followers waiting on
// another caller's run never hold one, so shared references cannot
// deadlock the pool even at Workers=1, and slot holders never wait on
// anything but their own simulation. Runners that share a cache share
// its pool.
//
// The experiments fan their simulations out through fanOut, which
// dispatches tasks in order: the next task starts only once the
// previous one's simulation holds a slot, or the previous task has
// finished (a cache hit, or a wait on another caller's run). With
// Workers=1 the matrix therefore runs one simulation at a time in
// matrix order, and at any width simulations take slots in matrix
// order.

// simPool is a Cache's bound on concurrent simulations.
type simPool struct {
	slots  chan struct{}
	active *obs.Gauge
}

// pool returns the cache's simulation pool, creating it on first use
// with the Workers value set by then (GOMAXPROCS when unset), and
// publishes its pool.workers and pool.active gauges.
func (c *Cache) pool() *simPool {
	c.poolOnce.Do(func() {
		c.mu.Lock()
		w := c.Workers
		c.mu.Unlock()
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		c.m.reg.Gauge("pool.workers").Set(int64(w))
		c.sims = &simPool{slots: make(chan struct{}, w), active: c.m.reg.Gauge("pool.active")}
	})
	return c.sims
}

// run takes a slot, reports the calling task started, runs simulate
// and frees the slot. A failed or panicking simulation stops the
// caller's fan-out before the slot frees, so no task queued behind the
// slot starts after the failure.
func (p *simPool) run(ctx context.Context, simulate func() (*sim.Result, error)) (res *sim.Result, err error) {
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p.active.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			stopGroup(ctx, fmt.Errorf("experiments: simulation panic: %v", rec))
			p.free()
			panic(rec)
		}
		if err != nil {
			stopGroup(ctx, err)
		}
		p.free()
	}()
	// The slot and a stop can become ready together; a stopped caller
	// must not start.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	signalStarted(ctx)
	return simulate()
}

func (p *simPool) free() {
	p.active.Add(-1)
	<-p.slots
}

// group is one fanOut call. Its first error cancels its context, so
// tasks still waiting to start give up. Groups nest (RunAll's pair
// tasks each fan out a pair's simulations), and stopping a group stops
// every enclosing one: a failure anywhere ends the whole call tree.
type group struct {
	parent *group
	cancel context.CancelFunc
	once   sync.Once
	err    error
}

// stop records err as the group's outcome (the first error wins) and
// cancels the group and its ancestors.
func (g *group) stop(err error) {
	for ; g != nil; g = g.parent {
		g.once.Do(func() {
			g.err = err
			g.cancel()
		})
	}
}

type (
	groupKey   struct{} // ctx value: the innermost *group
	startedKey struct{} // ctx value: the enclosing task's started signal
	onStartKey struct{} // ctx value: the hook installed by OnStart
)

// stopGroup stops the fan-out group ctx belongs to, if any.
func stopGroup(ctx context.Context, err error) {
	if g, ok := ctx.Value(groupKey{}).(*group); ok {
		g.stop(err)
	}
}

// signalStarted tells the fan-out that dispatched ctx's task that the
// task is under way, if it was dispatched by one, and fires the OnStart
// hook ctx carries, if any.
func signalStarted(ctx context.Context) {
	if started, ok := ctx.Value(startedKey{}).(func()); ok {
		started()
	}
	if hook, ok := ctx.Value(onStartKey{}).(func()); ok {
		hook()
	}
}

// OnStart returns a copy of ctx that calls fn once, when the first
// simulation run under it holds a pool slot (or a fan-out under it has
// dispatched every task). Nested fan-outs do not hide it, so a service
// learns when a request's work began, not when its last task did.
func OnStart(ctx context.Context, fn func()) context.Context {
	var once sync.Once
	return context.WithValue(ctx, onStartKey{}, func() { once.Do(fn) })
}

// fanOut runs task(ctx, i) for each i in [0, n), each on its own
// goroutine, and waits for them all. Tasks are dispatched in order: the
// next one starts once the previous one's simulation holds a pool slot,
// its nested fanOut has dispatched all its own tasks, or it returned.
// The first error (a task panic is recovered into one) stops dispatch
// and cancels the tasks' context; fanOut returns that error, or ctx's
// error if ctx ended first.
func fanOut(ctx context.Context, n int, task func(context.Context, int) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := &group{cancel: cancel}
	g.parent, _ = ctx.Value(groupKey{}).(*group)
	gctx = context.WithValue(gctx, groupKey{}, g)

	var wg sync.WaitGroup
	for i := 0; i < n && gctx.Err() == nil; i++ {
		started := make(chan struct{})
		var once sync.Once
		signal := func() { once.Do(func() { close(started) }) }
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer signal()
			defer func() {
				if rec := recover(); rec != nil {
					g.stop(fmt.Errorf("experiments: worker panic: %v", rec))
				}
			}()
			if err := task(context.WithValue(gctx, startedKey{}, signal), i); err != nil {
				g.stop(err)
			}
		}(i)
		<-started
	}
	// Every task is under way, so this call counts as started for the
	// fan-out that dispatched it.
	signalStarted(ctx)
	wg.Wait()
	if g.err != nil {
		return g.err
	}
	return ctx.Err()
}
