package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// shot is the outcome of one scheduled send in an open-loop replay.
type shot struct {
	Late    time.Duration // how far behind its due time the send left
	Latency time.Duration // due time to answer; meaningless when !OK
	OK      bool
}

// latencyMS returns the shot's latency in milliseconds, +Inf for a
// failed or refused send so it misses every latency limit.
func (s shot) latencyMS() float64 {
	if !s.OK {
		return math.Inf(1)
	}
	return float64(s.Latency) / 1e6
}

// replay sends len(due) requests open loop: request i is due at
// start+due[i] whatever happened to earlier ones. senders goroutines
// take requests in due order, wait for the due time and call send,
// which returns when the answer arrived and whether it was accepted.
// Latency runs from the due time, not the send time, so a stalled
// server that holds every sender delays the requests behind it and
// that wait is charged to them. replay returns once every request has
// been answered; out[i] belongs to due[i].
func replay(start time.Time, due []time.Duration, senders int, send func(i int) (time.Time, bool)) []shot {
	out := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(at)
				end, ok := send(i)
				out[i] = shot{Late: late, Latency: end.Sub(at), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// lateMS returns every shot's lateness in milliseconds.
func lateMS(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = float64(s.Late) / 1e6
	}
	return out
}
