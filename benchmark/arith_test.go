package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median has only 9 samples above it
		{20, 50, true},
		{78, 75, true}, // figures-cold's simulation count: p90 leaves 7
		{99, 75, true},
		{100, 90, true},
		{999, 95, true}, // p99 leaves 9
		{1000, 99, true},
		{11000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeCountsRefusedAsInfinite(t *testing.T) {
	// 990 answers of 1..990 ms and 10 refused requests: p99 leaves
	// exactly the 10 refusals beyond it, so it is the slowest answer.
	xs := make([]float64, 0, 1000)
	for i := 1; i <= 990; i++ {
		xs = append(xs, float64(i))
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, infMS())
	}
	d := summarize(xs)
	if d.N != 1000 || d.TailPct != 99 || d.Tail != 990 || d.P50 != 500 {
		t.Fatalf("summarize = %+v; want N=1000 p99=990 p50=500", d)
	}
	// One more refusal and the tail itself is a refusal: it misses
	// every latency limit.
	xs[0] = infMS()
	if d := summarize(xs); !math.IsInf(d.Tail, 1) {
		t.Fatalf("tail with 11 refusals = %v; want +Inf", d.Tail)
	}
	if finite(infMS()) != 1e12 {
		t.Fatal("finite(+Inf) must clamp to an encodable number")
	}
}

func TestSummarizeSmallSampleReportsMax(t *testing.T) {
	d := summarize([]float64{3, 1, 2})
	if d.P50 != 2 || d.Tail != 3 || d.TailPct != 0 {
		t.Fatalf("summarize = %+v; want p50=2, tail=max=3, no percentile", d)
	}
}

func TestSelfTimeTakesUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "proxy", Start: 0, End: 100 * ms},
		// Concurrent children overlapping one another, one spilling
		// past the parent's end.
		{ID: 2, Parent: 1, Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Start: 20 * ms, End: 40 * ms},
	}
	self := selfTimes(spans)
	// Covered: [10,70] and [90,100] = 70ms; a sum would claim 110ms.
	if self[1] != 30*ms {
		t.Errorf("root self = %v; want 30ms", self[1])
	}
	if self[2] != 20*ms {
		t.Errorf("child self = %v; want 20ms", self[2])
	}
	if self[3] != 40*ms || self[5] != 20*ms {
		t.Errorf("leaf self = %v, %v; want full durations", self[3], self[5])
	}
}

func TestSelfTimeNestedAndIdenticalChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 2 * ms, End: 8 * ms},
		{ID: 3, Parent: 1, Start: 2 * ms, End: 8 * ms},
		{ID: 4, Parent: 1, Start: 3 * ms, End: 4 * ms},
	}
	if got := selfTimes(spans)[1]; got != 4*ms {
		t.Fatalf("self = %v; want 4ms", got)
	}
}

func TestRecorderLinksThroughContext(t *testing.T) {
	var nilRec *recorder
	if sp := nilRec.begin("x", 0); sp.ID != 0 {
		t.Fatal("a nil recorder must hand out zero spans")
	}
	nilRec.finish(span{ID: 1})

	rec := newRecorder()
	parent := rec.begin("parent", 0)
	ctx := withSpan(context.Background(), parent.ID)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.finish(rec.begin("child", spanFrom(ctx)))
		}()
	}
	wg.Wait()
	rec.finish(parent)
	kids := byName(rec.snapshot())["child"]
	if len(kids) != 8 {
		t.Fatalf("recorded %d children; want 8", len(kids))
	}
	for _, k := range kids {
		if k.Parent != parent.ID {
			t.Fatalf("child parent = %d; want %d", k.Parent, parent.ID)
		}
	}
}

func TestReplayChargesStallToLaterRequests(t *testing.T) {
	// One sender, requests due every 10ms; the server stalls the first
	// answer for 60ms. The requests queued behind it leave late, and
	// their latency counts from their due time, stall included.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	start := time.Now().Add(5 * time.Millisecond)
	shots := replay(start, due, 1, func(i int) (time.Time, bool) {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return time.Now(), true
	})
	ms := time.Millisecond
	if shots[0].Late > 5*ms || shots[0].Latency < 60*ms {
		t.Errorf("stalled request: %+v", shots[0])
	}
	// Request 1 was due at 10ms and could leave only at ~60ms.
	if shots[1].Late < 45*ms || shots[1].Latency < 45*ms {
		t.Errorf("request behind the stall: late %v latency %v; want both >= 45ms", shots[1].Late, shots[1].Latency)
	}
	if shots[3].Late < 25*ms {
		t.Errorf("request 3 late %v; want >= 25ms", shots[3].Late)
	}
	// The backlog has drained by the last request's due time.
	if shots[4].Late > 20*ms {
		t.Errorf("request after the backlog late %v; want on time", shots[4].Late)
	}
}

func TestReplayOpenLoopDoesNotWaitForAnswers(t *testing.T) {
	// With enough senders a stalled answer holds only its own sender:
	// the others keep the schedule.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	shots := replay(time.Now(), due, 3, func(i int) (time.Time, bool) {
		if i == 0 {
			time.Sleep(80 * time.Millisecond)
		}
		return time.Now(), i != 2
	})
	if shots[1].Late > 20*time.Millisecond {
		t.Errorf("request 1 late %v behind a stall it does not share", shots[1].Late)
	}
	if !math.IsInf(shots[2].latencyMS(), 1) {
		t.Errorf("refused request latency = %v; want +Inf", shots[2].latencyMS())
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
}
