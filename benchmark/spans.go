package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded at a layer boundary. Start and
// End are offsets from the recorder's origin; Parent is 0 for a root.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// is the untraced mode: begin returns a zero handle and finish does
// nothing, so untimed call sites need no conditionals.
type recorder struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its handle.
func (r *recorder) begin(name string, parent uint64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.next.Add(1), Parent: parent, Name: name, Start: time.Since(r.t0)}
}

// finish closes sp and stores it.
func (r *recorder) finish(sp span) {
	if r == nil || sp.ID == 0 {
		return
	}
	sp.End = time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

// withSpan returns ctx carrying id as the parent for spans opened
// further down the call chain.
func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanFrom returns the span id carried by ctx, or 0.
func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// selfTimes returns each span's self time: its duration minus the
// union of its children's intervals, clipped to its own. Children run
// concurrently and may overlap one another; the union counts covered
// time once, where a sum would count it once per child.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	m := make(map[string][]span)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}
