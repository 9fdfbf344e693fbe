package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"soemt/internal/experiments"
	"soemt/internal/sim"
)

// fuzzServer is the server whose decode path every fuzz input goes
// through; decoding reads only its body bound.
func fuzzServer(f *testing.F) *Server {
	s, err := NewServer(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// decodeBody feeds body to the handlers' decode path. A rejected body
// must be answered 400 or 413, never anything else.
func decodeBody(t *testing.T, s *Server, body []byte, v any) bool {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if s.decode(w, r, v) {
		return true
	}
	if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("decode rejected %q with status %d, want 400 or 413", body, w.Code)
	}
	return false
}

// mustValidate fails the fuzz input when a spec the request checks
// accepted would be refused by the simulator.
func mustValidate(t *testing.T, body []byte, spec sim.Spec) {
	if err := spec.Validate(); err != nil {
		t.Fatalf("request %q accepted, but its spec fails sim.Spec.Validate: %v", body, err)
	}
}

// runSeeds are the README's /v1/run bodies plus malformed ones.
var runSeeds = []string{
	`{"pair":"gcc:eon","f":0.5,"scale":"tiny"}`,
	`{"pair":"gcc:eon","f":0,"scale":"tiny","trace":true}`,
	`{"pair":"swim:mcf","f":0.5,"scale":"tiny"}`,
	`{"pair":"swim:mcf","f":0.5,"tier":"fast"}`,
	`{"bench":"gcc","scale":"paper"}`,
	`{"pair":"gcc:gcc","f":1,"scale":"quick","tier":"exact"}`,
	`{"pair":"gcc:eon","f":-0.5}`,
	`{"pair":"gcc:eon","f":1e400}`,
	`{"pair":"gcc","bench":"eon"}`,
	`{"pair":"gcc:eon:swim"}`,
	`{"f":"0.5"}`,
	`{"nope":1}`,
	`{"pair":"gcc:eon"`,
	`{"pair":"gcc:eon","f":0.5,"tier":"fast"} {}`,
	`null`,
	`[]`,
	``,
}

// FuzzRunRequest drives arbitrary /v1/run bodies through decode and
// buildSpec: neither may panic, and every spec buildSpec accepts must
// pass sim.Spec.Validate and route by its fresh fingerprint.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range runSeeds {
		f.Add([]byte(seed))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var rq RunRequest
		if !decodeBody(t, s, body, &rq) {
			return
		}
		tierFor(rq.Tier, s.cfg.DefaultTier)
		spec, names, err := rq.buildSpec()
		if err != nil {
			return
		}
		mustValidate(t, body, spec)
		if len(names) != len(spec.Threads) {
			t.Fatalf("request %q: %d thread names for %d threads", body, len(names), len(spec.Threads))
		}
		want, err := experiments.Fingerprint(spec)
		if err != nil {
			t.Fatalf("request %q built a spec that does not fingerprint: %v", body, err)
		}
		// Twice: the first call may miss the memo, the second hits it
		// unless the memo is full.
		for i := 0; i < 2; i++ {
			if got, err := rq.RouteKey(); err != nil || got != want {
				t.Fatalf("request %q: RouteKey = %q, %v; want the fresh fingerprint %q", body, got, err, want)
			}
		}
	})
}

// sweepSeeds are the README's /v1/sweep body plus malformed ones.
var sweepSeeds = []string{
	`{"pairs":["gcc:eon","swim:gzip"],"scale":"tiny"}`,
	`{"pairs":["gcc:eon"],"scale":"tiny"}`,
	`{"scale":"paper","tier":"fast"}`,
	`{}`,
	`{"pairs":["gcc:gcc"],"scale":"quick","tier":"auto"}`,
	`{"pairs":["gcc"]}`,
	`{"pairs":["gcc:nope"]}`,
	`{"pairs":"gcc:eon"}`,
	`{"pairs":[1,2]}`,
	`{"scale":"huge"}`,
	`{"pairs":["gcc:eon"],"extra":true}`,
	`{"pairs":[`,
	`null`,
	``,
}

// FuzzSweepRequest drives arbitrary /v1/sweep bodies through decode
// and validate: neither may panic, and every simulation an accepted
// sweep would run (its pairs, or the full matrix, at every F level,
// plus their single-thread references) must pass sim.Spec.Validate.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range sweepSeeds {
		f.Add([]byte(seed))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var rq SweepRequest
		if !decodeBody(t, s, body, &rq) {
			return
		}
		tierFor(rq.Tier, s.cfg.DefaultTier)
		if err := rq.validate(); err != nil {
			return
		}
		if _, err := rq.RouteKey(); err != nil {
			t.Fatalf("sweep %q validated but has no route key: %v", body, err)
		}
		pairs := rq.Pairs
		if len(pairs) == 0 {
			for _, p := range experiments.Pairs() {
				pairs = append(pairs, p.Name())
			}
		}
		for _, pair := range pairs {
			a, b, err := splitPair(pair)
			if err != nil {
				t.Fatalf("sweep %q validated, but pair %q does not split: %v", body, pair, err)
			}
			reqs := []RunRequest{{Bench: a.Name, Scale: rq.Scale}, {Bench: b.Name, Scale: rq.Scale}}
			for _, f := range experiments.FLevels {
				reqs = append(reqs, RunRequest{Pair: pair, F: f, Scale: rq.Scale})
			}
			for _, run := range reqs {
				spec, _, err := run.buildSpec()
				if err != nil {
					t.Fatalf("sweep %q validated, but its run %+v does not build: %v", body, run, err)
				}
				mustValidate(t, body, spec)
			}
		}
	})
}
